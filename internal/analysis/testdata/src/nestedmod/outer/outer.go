// Package outer sits beside a nested module: the recursive pattern
// loads it, and its one finding proves the analyzers ran.
package outer

// Eq is a plain floateq miss.
func Eq(a, b float64) bool {
	return a == b // want floateq "== between float operands"
}
