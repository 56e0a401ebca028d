// Package sub lies below the nested module's root, so it belongs to
// that module too and is skipped with it.
package sub

// Neq would be a floateq finding if the nested module were analyzed.
func Neq(a, b float64) bool {
	return a != b
}
