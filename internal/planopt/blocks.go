package planopt

// BlocksFor converts a per-tuple cardinality hint into a block count for
// the executor: the number of fixed-capacity blocks of blockSize
// tuples needed to hold n tuples, rounding UP — a producer that promises
// 1500 tuples at block size 1024 emits two blocks. A hint of 0 (a provably
// empty input) needs zero blocks, which is what lets spool and buffer
// preallocation skip allocating a full block for empty producers; negative
// n (unbounded) and non-positive blockSize also yield 0.
func BlocksFor(n, blockSize int) int {
	if n <= 0 || blockSize <= 0 {
		return 0
	}
	return (n + blockSize - 1) / blockSize
}
