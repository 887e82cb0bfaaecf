//go:build !linux || (!amd64 && !arm64)

package udpio

// withOffload is never reached here: newBatchConn already failed, so Wrap
// returns the portable shim before asking for offload.
func withOffload(c Conn) Conn { return c }
