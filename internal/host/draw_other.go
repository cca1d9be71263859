//go:build !amd64

package host

// vectorDraw reports false: the vector kernel is amd64 only, and every draw
// takes scalarDraw.
func vectorDraw(u, v *[drawBlock]float64, mu, sigma float64, out []float64) bool { return false }
