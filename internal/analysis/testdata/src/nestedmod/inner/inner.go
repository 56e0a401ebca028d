// Package inner belongs to its own module (see go.mod beside it), which
// the recursive pattern of the enclosing module must not enter. Its
// finding carries no want annotation: reporting it fails the test.
package inner

// Eq would be a floateq finding if this module were analyzed.
func Eq(a, b float64) bool {
	return a == b
}
