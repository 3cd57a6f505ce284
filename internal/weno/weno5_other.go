//go:build !amd64

package weno

// weno5Pairs fills no interface off amd64: Weno5.ReconstructLeft's Go loop
// computes every one.
func weno5Pairs(fhat, f []float64) int { return 0 }
