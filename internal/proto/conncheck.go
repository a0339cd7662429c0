//go:build unix

package proto

import (
	"errors"
	"io"
	"net"
	"syscall"
)

var errUnexpectedRead = errors.New("proto: unexpected read from idle connection")

// connCheck is the check database drivers make before reusing a pooled
// connection: one non-blocking read of one byte, straight on the
// descriptor. Only "would block" means the connection is idle and open;
// end of file, a reset or a stray byte all mean it must not be used.
// Connections that are not backed by a descriptor pass.
func connCheck(conn net.Conn) error {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return err
	}
	var readErr error
	err = rc.Read(func(fd uintptr) bool {
		var one [1]byte
		n, err := syscall.Read(int(fd), one[:])
		switch {
		case n == 0 && err == nil:
			readErr = io.EOF
		case n > 0:
			readErr = errUnexpectedRead
		case err == syscall.EAGAIN || err == syscall.EWOULDBLOCK:
			readErr = nil
		default:
			readErr = err
		}
		return true // never wait for readability
	})
	if err != nil {
		return err
	}
	return readErr
}
