package transport_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"spotless/internal/transport"
)

// TestCloseRacingAccepts: connections accepted while Close runs are closed
// too. The dialers hold every connection open and never send a hello, so a
// connection Close missed would keep its serveInbound goroutine reading —
// and Close waiting on that goroutine — until the peer hung up, which these
// peers never do.
func TestCloseRacingAccepts(t *testing.T) {
	for round := 0; round < 20; round++ {
		tr := transport.New(transport.Config{ID: 0, Listen: "127.0.0.1:0"})
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		addr := tr.Addr()

		var mu sync.Mutex
		var conns []net.Conn
		stop := make(chan struct{})
		var dialers sync.WaitGroup
		for d := 0; d < 4; d++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					c, err := net.Dial("tcp", addr)
					if err != nil {
						return // the listener is gone
					}
					mu.Lock()
					conns = append(conns, c)
					mu.Unlock()
				}
			}()
		}
		time.Sleep(2 * time.Millisecond) // let accepts land before Close

		closed := make(chan struct{})
		go func() {
			tr.Close()
			close(closed)
		}()
		var blocked bool
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			blocked = true
		}
		close(stop)
		dialers.Wait()
		if blocked {
			t.Fatalf("round %d: Close still blocked after 5s: an accepted connection was left open", round)
		}

		// Every connection the transport accepted is closed on its side, so
		// the dialer reads EOF or a reset — never a timeout. The probe byte
		// also draws a reset from connections the kernel completed but the
		// listener never accepted (dropped with the listen socket).
		for _, c := range conns {
			_ = c.SetDeadline(time.Now().Add(2 * time.Second))
			_, _ = c.Write([]byte{0})
			var b [1]byte
			_, err := c.Read(b[:])
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("round %d: connection %s→%s stayed open after Close", round, c.LocalAddr(), c.RemoteAddr())
			}
			c.Close()
		}
	}
}
