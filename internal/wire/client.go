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
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	sbuf []byte // Send scratch
	rbuf []byte // Recv frame scratch
}

// Dial connects to a wire server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// Pipelining batches frames explicitly; Nagle would only add
		// delay on the final partial segment of a window.
		tc.SetNoDelay(true)
	}
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}, nil
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
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

// Recv reads the next response in request order into resp.
func (c *Client) Recv(resp *Response) error {
	frame, err := ReadFrame(c.br, c.rbuf[:0])
	if err != nil {
		return err
	}
	c.rbuf = frame[:0]
	return DecodeResponse(frame, resp)
}

// do is the synchronous one-request helper behind the convenience calls.
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

// Insert stores a record synchronously.
func (c *Client) Insert(key string, fields []store.Field) error {
	var resp Response
	if err := c.do(&Request{Op: OpInsert, Key: key, Fields: fields}, &resp); err != nil {
		return err
	}
	return statusErr(&resp)
}

// Read fetches a record synchronously; found is false on StatusNotFound.
func (c *Client) Read(key string) (fields []store.Field, found bool, err error) {
	var resp Response
	if err := c.do(&Request{Op: OpRead, Key: key}, &resp); err != nil {
		return nil, false, err
	}
	switch resp.Status {
	case StatusOK:
		return resp.Fields, true, nil
	case StatusNotFound:
		return nil, false, nil
	}
	return nil, false, fmt.Errorf("wire: read: %s", resp.Msg)
}

// AddDelta folds a signed delta into an 8-byte counter field
// synchronously. Under the server's async pipeline the acknowledgement
// still implies durability — the window fences before responding.
func (c *Client) AddDelta(key, field string, delta int64) error {
	var resp Response
	if err := c.do(&Request{Op: OpAddDelta, Key: key, Field: field, Delta: delta}, &resp); err != nil {
		return err
	}
	return statusErr(&resp)
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

func statusErr(resp *Response) error {
	switch resp.Status {
	case StatusOK:
		return nil
	case StatusNotFound:
		return store.ErrNotFound
	}
	return fmt.Errorf("wire: %s: %s", resp.Op, resp.Msg)
}
