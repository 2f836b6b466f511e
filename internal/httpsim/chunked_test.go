package httpsim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// MarshalChunked serializes a response with chunked transfer encoding,
// splitting the body into chunkSize-byte chunks. Nothing in the simulator
// sends chunked bodies; the tests drive the chunked decoder with it.
func (r *Response) MarshalChunked(chunkSize int) []byte {
	if chunkSize <= 0 {
		chunkSize = 4096
	}
	var b bytes.Buffer
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	reason := r.Reason
	if reason == "" {
		reason = StatusText(r.Status)
	}
	fmt.Fprintf(&b, "%s %d %s\r\n", proto, r.Status, reason)
	for _, h := range r.Headers {
		if strings.EqualFold(h.Key, "Content-Length") {
			continue
		}
		fmt.Fprintf(&b, "%s: %s\r\n", h.Key, h.Value)
	}
	b.WriteString("Transfer-Encoding: chunked\r\n\r\n")
	body := r.Body
	for len(body) > 0 {
		n := len(body)
		if n > chunkSize {
			n = chunkSize
		}
		fmt.Fprintf(&b, "%x\r\n", n)
		b.Write(body[:n])
		b.WriteString("\r\n")
		body = body[n:]
	}
	b.WriteString("0\r\n\r\n")
	return b.Bytes()
}

func TestChunkedRoundTrip(t *testing.T) {
	in := &Response{Status: 200, Headers: Headers{{"Server", "sim"}}, Body: []byte("hello chunked world")}
	b := in.MarshalChunked(5)
	out, n, err := ParseResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d", n, len(b))
	}
	if string(out.Body) != "hello chunked world" {
		t.Fatalf("body = %q", out.Body)
	}
	if out.Headers.Get("Transfer-Encoding") != "chunked" {
		t.Fatal("transfer-encoding header lost")
	}
}

func TestChunkedEmptyBody(t *testing.T) {
	in := &Response{Status: 204}
	out, _, err := ParseResponse(in.MarshalChunked(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Body) != 0 {
		t.Fatalf("body = %q", out.Body)
	}
}

func TestChunkedIncrementalParse(t *testing.T) {
	full := (&Response{Status: 200, Body: bytes.Repeat([]byte("x"), 100)}).MarshalChunked(7)
	for cut := 0; cut < len(full); cut++ {
		_, _, err := ParseResponse(full[:cut])
		if err == nil {
			t.Fatalf("cut=%d: parse succeeded early", cut)
		}
		if !errors.Is(err, ErrIncomplete) {
			t.Fatalf("cut=%d: err = %v, want ErrIncomplete", cut, err)
		}
	}
}

func TestChunkedMalformed(t *testing.T) {
	cases := []string{
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhello\r\n0\r\n\r\n", // bad hex
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhelloXX0\r\n\r\n",    // missing CRLF after data
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\nXY",    // bad final CRLF
	}
	for _, c := range cases {
		if _, _, err := ParseResponse([]byte(c)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%q: err = %v, want ErrMalformed", c, err)
		}
	}
}

func TestChunkedRequestBody(t *testing.T) {
	// Chunked also applies to requests.
	raw := "POST /up HTTP/1.1\r\nHost: s\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"3\r\nabc\r\n4\r\ndefg\r\n0\r\n\r\n"
	req, n, err := ParseRequest([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raw) || string(req.Body) != "abcdefg" {
		t.Fatalf("body = %q consumed %d/%d", req.Body, n, len(raw))
	}
}

// Property: chunked marshal/parse round-trips for arbitrary bodies and
// chunk sizes.
func TestQuickChunkedRoundTrip(t *testing.T) {
	f := func(body []byte, size uint8) bool {
		in := &Response{Status: 200, Body: body}
		b := in.MarshalChunked(int(size%64) + 1)
		out, n, err := ParseResponse(b)
		if err != nil || n != len(b) {
			return false
		}
		return bytes.Equal(out.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
