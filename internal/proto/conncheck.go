//go:build unix

package proto

import (
	"errors"
	"io"
	"net"
	"syscall"
)

var errUnexpectedRead = errors.New("proto: unexpected read from idle connection")

// idleCheck is the check database drivers make before reusing a pooled
// connection: one non-blocking read of one byte, straight on the
// descriptor. Only "would block" means the connection is idle and open;
// end of file, a reset or a stray byte all mean it must not be used.
// Connections that are not backed by a descriptor pass. It takes the
// descriptor's syscall.RawConn and builds its read callback once per
// connection, so that a check allocates nothing.
type idleCheck struct {
	conn net.Conn
	rc   syscall.RawConn // nil when conn has no descriptor
	err  error           // SyscallConn's failure, or what the last read found
	read func(fd uintptr) bool
	one  [1]byte // where read reads; on the stack it would escape under -race
}

func newIdleCheck(conn net.Conn) *idleCheck {
	ic := &idleCheck{conn: conn}
	if sc, ok := conn.(syscall.Conn); ok {
		if ic.rc, ic.err = sc.SyscallConn(); ic.err != nil {
			ic.rc = nil
		}
	}
	ic.read = func(fd uintptr) bool {
		n, err := syscall.Read(int(fd), ic.one[:])
		switch {
		case n == 0 && err == nil:
			ic.err = io.EOF
		case n > 0:
			ic.err = errUnexpectedRead
		case err == syscall.EAGAIN || err == syscall.EWOULDBLOCK:
			ic.err = nil
		default:
			ic.err = err
		}
		return true // never wait for readability
	}
	return ic
}

func (ic *idleCheck) check() error {
	if ic.rc == nil {
		return ic.err
	}
	if err := ic.rc.Read(ic.read); err != nil {
		return err
	}
	return ic.err
}
