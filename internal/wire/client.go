package wire

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"repro/internal/store"
)

// Client is one connection speaking the wire protocol. It is not safe
// for concurrent use; a load generator runs one Client per goroutine.
// Pipelining is explicit: Send buffers request frames, Flush pushes them
// out, Recv reads responses in request order.
type Client struct {
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	sbuf   []byte        // Send scratch
	rbuf   []byte        // the frame of the last Recv
	fields []store.Field // the Fields of every READ response
	names  nameTable
}

// DialTimeout connects to a wire server with a connect timeout.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// Pipelining batches frames explicitly; Nagle would only add
		// delay on the final partial segment of a window.
		tc.SetNoDelay(true)
	}
	return &Client{
		conn:  conn,
		br:    bufio.NewReaderSize(conn, 64<<10),
		bw:    bufio.NewWriterSize(conn, 64<<10),
		names: make(nameTable),
	}, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// Send buffers one request frame.
func (c *Client) Send(req *Request) error {
	c.sbuf = AppendRequest(c.sbuf[:0], req)
	_, err := c.bw.Write(c.sbuf)
	return err
}

// Flush pushes buffered frames to the server.
func (c *Client) Flush() error { return c.bw.Flush() }

// Recv reads the next response in request order into resp. It decodes in
// place, so resp is valid only until the next Recv: the field values of
// a READ alias the client's frame buffer, and resp.Fields is a slice
// the client reuses. A caller that keeps a field copies it; Msg and Blob
// are copies already.
func (c *Client) Recv(resp *Response) error {
	var frame []byte
	var err error
	if c.rbuf, frame, err = appendFrame(c.br, c.rbuf[:0]); err != nil {
		return err
	}
	err = decodeResponse(frame, resp, c.fields[:0], c.names)
	if resp.Fields != nil {
		c.fields = resp.Fields
	}
	return err
}

// do is the synchronous one-request helper behind Ping and Stats.
func (c *Client) do(req *Request, resp *Response) error {
	if err := c.Send(req); err != nil {
		return err
	}
	if err := c.Flush(); err != nil {
		return err
	}
	return c.Recv(resp)
}

// Ping round-trips an OpPing.
func (c *Client) Ping() error {
	var resp Response
	if err := c.do(&Request{Op: OpPing}, &resp); err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("wire: ping status %d", resp.Status)
	}
	return nil
}

// Stats fetches the server's stats JSON.
func (c *Client) Stats() ([]byte, error) {
	var resp Response
	if err := c.do(&Request{Op: OpStats}, &resp); err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, fmt.Errorf("wire: stats status %d: %s", resp.Status, resp.Msg)
	}
	return resp.Blob, nil
}
