package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection on which the load generator
// posts requests and reads responses in the calling goroutine. net/http's
// client hands each request to two more goroutines per connection; on a
// two-core machine the server shares, those handoffs would be measured as
// serving latency.
type conn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	req  []byte
	body []byte
}

// requestTimeout bounds one round trip, so a hung server fails the request
// instead of the run.
const requestTimeout = 10 * time.Second

func newConn(addr string) *conn { return &conn{addr: addr} }

// post sends body to path and returns the response status and body. The body
// is valid until the next post. After an error the connection is closed and
// the next post dials again.
func (c *conn) post(path string, body []byte) (int, []byte, error) {
	status, resp, err := c.roundTrip(path, body)
	if err != nil {
		c.close()
	}
	return status, resp, err
}

func (c *conn) roundTrip(path string, body []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.r = nc, bufio.NewReader(nc)
	}
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	c.req = append(c.req[:0], "POST "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.addr...)
	c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	if _, err := c.c.Write(c.req); err != nil {
		return 0, nil, err
	}
	return c.readResponse()
}

// readResponse reads a status line, headers and a Content-Length body.
func (c *conn) readResponse() (int, []byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, closing := -1, false
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h := bytes.TrimRight(line, "\r\n")
		if len(h) == 0 {
			break
		}
		name, value, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return 0, nil, fmt.Errorf("malformed header %q", h)
		}
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(bytes.TrimSpace(value))); err != nil || length < 0 {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			return 0, nil, errors.New("chunked response bodies are not supported")
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(bytes.TrimSpace(value), []byte("close"))
		}
	}
	if length < 0 {
		return 0, nil, errors.New("response has no Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.r, c.body); err != nil {
		return 0, nil, err
	}
	if closing {
		c.close()
	}
	return status, c.body, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c, c.r = nil, nil
	}
}
