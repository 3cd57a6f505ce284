package weno

// weno5Pairs runs Weno5.ReconstructLeft's sliding window on two interfaces
// at a time, k in the low lane of the SSE2 registers and k+1 in the high
// one, each lane performing the Go loop's operations in the Go loop's
// order. It fills the largest even number of leading interfaces of fhat
// and returns that count. The caller has checked that
// len(f) == len(fhat)+2*Ghost-1 >= 2*Ghost+1; no index above len(fhat)+4
// is read.
//
//go:noescape
func weno5Pairs(fhat, f []float64) int
