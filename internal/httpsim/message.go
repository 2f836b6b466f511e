// Package httpsim implements an HTTP/1.1 message codec and a small
// server/client pair running over the tcpsim substrate.
//
// HTTP is what separates the paper's HTTP-based measurement methods (XHR,
// DOM, Flash/Java GET and POST) from the socket-based ones: every request
// pays header serialization, parsing and — depending on the browser's
// connection policy — possibly a fresh TCP handshake.
package httpsim

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/browsermetric/browsermetric/internal/arena"
)

// ErrIncomplete reports that more bytes are needed to finish parsing a
// message. Callers accumulate stream data and retry.
var ErrIncomplete = errors.New("httpsim: incomplete message")

// ErrMalformed reports an unparseable message.
var ErrMalformed = errors.New("httpsim: malformed message")

// Header is a single ordered header field.
type Header struct {
	Key, Value string
}

// Headers is an ordered header list (order matters on the wire).
type Headers []Header

// Get returns the first value for key (case-insensitive), or "".
func (hs Headers) Get(key string) string {
	for _, h := range hs {
		if strings.EqualFold(h.Key, key) {
			return h.Value
		}
	}
	return ""
}

// Set replaces the first occurrence of key or appends.
func (hs *Headers) Set(key, value string) {
	for i, h := range *hs {
		if strings.EqualFold(h.Key, key) {
			(*hs)[i].Value = value
			return
		}
	}
	*hs = append(*hs, Header{key, value})
}

// Request is an HTTP/1.1 request.
type Request struct {
	Method  string
	Target  string
	Proto   string // "HTTP/1.1" if empty
	Headers Headers
	Body    []byte
}

// Response is an HTTP/1.1 response.
type Response struct {
	Proto   string // "HTTP/1.1" if empty
	Status  int
	Reason  string
	Headers Headers
	Body    []byte
}

// appendHeaders emits each header as "Key: Value\r\n".
func appendHeaders(b []byte, hs Headers) []byte {
	for _, h := range hs {
		b = append(b, h.Key...)
		b = append(b, ':', ' ')
		b = append(b, h.Value...)
		b = append(b, '\r', '\n')
	}
	return b
}

// headersLen is the serialized size of a header block.
func headersLen(hs Headers) int {
	n := 0
	for _, h := range hs {
		n += len(h.Key) + 2 + len(h.Value) + 2
	}
	return n
}

// MarshalArena is Marshal drawing the output buffer from an arena (nil
// falls back to the heap). The bytes are valid until the arena's next
// Reset.
func (r *Request) MarshalArena(a *arena.Arena) []byte {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	var clBuf [20]byte
	var cl []byte
	if len(r.Body) > 0 && r.Headers.Get("Content-Length") == "" {
		cl = strconv.AppendInt(clBuf[:0], int64(len(r.Body)), 10)
	}
	n := len(r.Method) + 1 + len(r.Target) + 1 + len(proto) + 2 +
		headersLen(r.Headers) + 2 + len(r.Body)
	if cl != nil {
		n += len("Content-Length: ") + len(cl) + 2
	}
	b := a.Make(0, n)
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, r.Target...)
	b = append(b, ' ')
	b = append(b, proto...)
	b = append(b, '\r', '\n')
	b = appendHeaders(b, r.Headers)
	if cl != nil {
		b = append(b, "Content-Length: "...)
		b = append(b, cl...)
		b = append(b, '\r', '\n')
	}
	b = append(b, '\r', '\n')
	b = append(b, r.Body...)
	return b
}

// Marshal serializes the response, always emitting Content-Length. The
// output is built in a single allocation.
func (r *Response) Marshal() []byte { return r.MarshalArena(nil) }

// MarshalArena is Marshal drawing the output buffer from an arena (nil
// falls back to the heap). The bytes are valid until the arena's next
// Reset.
func (r *Response) MarshalArena(a *arena.Arena) []byte {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	reason := r.Reason
	if reason == "" {
		reason = StatusText(r.Status)
	}
	var statusBuf, clBuf [20]byte
	status := strconv.AppendInt(statusBuf[:0], int64(r.Status), 10)
	var cl []byte
	if r.Headers.Get("Content-Length") == "" {
		cl = strconv.AppendInt(clBuf[:0], int64(len(r.Body)), 10)
	}
	n := len(proto) + 1 + len(status) + 1 + len(reason) + 2 +
		headersLen(r.Headers) + 2 + len(r.Body)
	if cl != nil {
		n += len("Content-Length: ") + len(cl) + 2
	}
	b := a.Make(0, n)
	b = append(b, proto...)
	b = append(b, ' ')
	b = append(b, status...)
	b = append(b, ' ')
	b = append(b, reason...)
	b = append(b, '\r', '\n')
	b = appendHeaders(b, r.Headers)
	if cl != nil {
		b = append(b, "Content-Length: "...)
		b = append(b, cl...)
		b = append(b, '\r', '\n')
	}
	b = append(b, '\r', '\n')
	b = append(b, r.Body...)
	return b
}

// StatusText returns the reason phrase for common status codes.
func StatusText(code int) string {
	switch code {
	case 101:
		return "Switching Protocols"
	case 200:
		return "OK"
	case 204:
		return "No Content"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	default:
		return "Unknown"
	}
}

// ParseRequestInto parses one request from the front of b into req,
// reusing req's header backing, interning strings through in, and drawing
// the body copy from a (both optional — nil means plain allocation). On
// success the request's fields are valid until the next parse into the
// same req or the arena's next Reset, whichever comes first. Returns the
// number of bytes consumed, or ErrIncomplete when b does not yet hold a
// full message (req is then partially overwritten and must not be read).
// With ErrIncomplete, the count is the whole message's length once the
// head is in and declares a Content-Length, and 0 otherwise.
func ParseRequestInto(req *Request, b []byte, in *Interner, a *arena.Arena) (int, error) {
	head, bodyStart, err := splitHead(b)
	if err != nil {
		return 0, err
	}
	line, rest := cutCRLF(head)
	method, r1, ok1 := cutSpace(line)
	target, proto, ok2 := cutSpace(r1)
	if !ok1 || !ok2 || !bytes.HasPrefix(proto, httpSlash) {
		return 0, fmt.Errorf("%w: bad request line %q", ErrMalformed, line)
	}
	req.Method = in.Intern(method)
	req.Target = in.Intern(target)
	req.Proto = in.Intern(proto)
	req.Body = nil
	if err := parseHeaders(rest, &req.Headers, in); err != nil {
		return 0, err
	}
	body, consumed, err := readBody(b, bodyStart, req.Headers, a)
	if err != nil {
		return consumed, err
	}
	req.Body = body
	return consumed, nil
}

// ParseResponseInto parses one response from the front of b into resp,
// with the same reuse semantics as ParseRequestInto.
func ParseResponseInto(resp *Response, b []byte, in *Interner, a *arena.Arena) (int, error) {
	head, bodyStart, err := splitHead(b)
	if err != nil {
		return 0, err
	}
	line, rest := cutCRLF(head)
	proto, r1, ok := cutSpace(line)
	if !ok || !bytes.HasPrefix(proto, httpSlash) {
		return 0, fmt.Errorf("%w: bad status line %q", ErrMalformed, line)
	}
	code, reason, _ := cutSpace(r1)
	status, err := atoiBytes(code)
	if err != nil {
		// Rare shapes (signed, spaced) take the allocating strconv path so
		// acceptance matches the original parser exactly.
		status, err = strconv.Atoi(string(code))
		if err != nil {
			return 0, fmt.Errorf("%w: bad status code %q", ErrMalformed, code)
		}
	}
	end, declared := declaredEnd(rest, bodyStart)
	if declared && len(b) < end {
		// Report the length before interning anything, so that a
		// response whose body is still arriving costs no allocation.
		return end, ErrIncomplete
	}
	resp.Proto = in.Intern(proto)
	resp.Status = status
	resp.Reason = in.Intern(reason)
	resp.Body = nil
	if err := parseHeaders(rest, &resp.Headers, in); err != nil {
		return 0, err
	}
	if declared {
		// The scan found the length that readBody would look up.
		resp.Body = copyBody(b[bodyStart:end], a)
		return end, nil
	}
	body, consumed, err := readBody(b, bodyStart, resp.Headers, a)
	if err != nil {
		return consumed, err
	}
	resp.Body = body
	return consumed, nil
}

var (
	crlfSep   = []byte("\r\n")
	headSep   = []byte("\r\n\r\n")
	httpSlash = []byte("HTTP/")
)

// cutCRLF splits b at the first CRLF; without one, the whole input is the
// first part (mirroring strings.Cut semantics for the parsers above).
func cutCRLF(b []byte) (line, rest []byte) {
	if i := bytes.Index(b, crlfSep); i >= 0 {
		return b[:i], b[i+2:]
	}
	return b, nil
}

// cutSpace splits b at the first space.
func cutSpace(b []byte) (tok, rest []byte, ok bool) {
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return b, nil, false
}

// atoiBytes parses an unsigned decimal integer without allocating.
func atoiBytes(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, ErrMalformed
	}
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, ErrMalformed
		}
		n = n*10 + int(ch-'0')
	}
	return n, nil
}

// splitHead finds the end of the header block. It returns the head (without
// the terminating CRLFCRLF) and the body start offset.
func splitHead(b []byte) ([]byte, int, error) {
	idx := bytes.Index(b, headSep)
	if idx < 0 {
		if len(b) > 64<<10 {
			return nil, 0, fmt.Errorf("%w: header block exceeds 64KiB", ErrMalformed)
		}
		return nil, 0, ErrIncomplete
	}
	return b[:idx], idx + 4, nil
}

// parseHeaders scans the CRLF-separated header block (everything after
// the start line), reusing out's backing array and interning the field
// strings through in.
func parseHeaders(block []byte, out *Headers, in *Interner) error {
	*out = (*out)[:0]
	for len(block) > 0 {
		ln, rest := cutCRLF(block)
		block = rest
		if len(ln) == 0 {
			continue
		}
		ci := bytes.IndexByte(ln, ':')
		if ci < 0 {
			return fmt.Errorf("%w: bad header line %q", ErrMalformed, ln)
		}
		k := bytes.TrimSpace(ln[:ci])
		v := bytes.TrimSpace(ln[ci+1:])
		*out = append(*out, Header{in.Intern(k), in.Intern(v)})
	}
	return nil
}

// declaredEnd scans a head's header lines, as parseHeaders and readBody
// read them but without allocating, for the Content-Length the message
// declares, and returns where the message ends. ok is false when a line
// is malformed, no plain decimal length is declared, or a key could be a
// Transfer-Encoding or a second spelling of Content-Length: the full
// parse decides those.
func declaredEnd(block []byte, bodyStart int) (end int, ok bool) {
	for len(block) > 0 {
		ln, rest := cutCRLF(block)
		block = rest
		if len(ln) == 0 {
			continue
		}
		ci := bytes.IndexByte(ln, ':')
		if ci < 0 {
			return 0, false
		}
		switch k := bytes.TrimSpace(ln[:ci]); {
		case string(k) == "Content-Length" && !ok:
			v := bytes.TrimSpace(ln[ci+1:])
			n, err := atoiBytes(v)
			if err != nil || len(v) > 18 {
				return 0, false
			}
			end, ok = bodyStart+n, true
		case len(k) == len("Content-Length") || len(k) == len("Transfer-Encoding"):
			return 0, false
		}
	}
	return end, ok
}

// readBody reads the body that starts at bodyStart and returns it with
// the message's length. A Content-Length body that is not all in yet is
// ErrIncomplete with the length it declares.
func readBody(b []byte, bodyStart int, hs Headers, a *arena.Arena) ([]byte, int, error) {
	if strings.EqualFold(hs.Get("Transfer-Encoding"), "chunked") {
		return readChunked(b, bodyStart)
	}
	cl := hs.Get("Content-Length")
	if cl == "" {
		return nil, bodyStart, nil
	}
	n, err := strconv.Atoi(cl)
	if err != nil || n < 0 {
		return nil, 0, fmt.Errorf("%w: bad Content-Length %q", ErrMalformed, cl)
	}
	if len(b) < bodyStart+n {
		return nil, bodyStart + n, ErrIncomplete
	}
	return copyBody(b[bodyStart:bodyStart+n], a), bodyStart + n, nil
}

// copyBody copies a message body out of the receive buffer into a.
func copyBody(p []byte, a *arena.Arena) []byte {
	body := a.Bytes(len(p))
	copy(body, p)
	return body
}

// readChunked parses an RFC 7230 chunked body: hex-size CRLF data CRLF,
// terminated by a zero-size chunk. Trailers are not supported (the final
// CRLF must follow the last chunk immediately).
func readChunked(b []byte, off int) ([]byte, int, error) {
	var body []byte
	for {
		nl := bytes.Index(b[off:], []byte("\r\n"))
		if nl < 0 {
			if len(b)-off > 16 {
				return nil, 0, fmt.Errorf("%w: oversized chunk header", ErrMalformed)
			}
			return nil, 0, ErrIncomplete
		}
		sizeHex := string(b[off : off+nl])
		size, err := strconv.ParseInt(strings.TrimSpace(sizeHex), 16, 32)
		if err != nil || size < 0 {
			return nil, 0, fmt.Errorf("%w: bad chunk size %q", ErrMalformed, sizeHex)
		}
		off += nl + 2
		if size == 0 {
			// Final chunk: expect the closing CRLF.
			if len(b) < off+2 {
				return nil, 0, ErrIncomplete
			}
			if b[off] != '\r' || b[off+1] != '\n' {
				return nil, 0, fmt.Errorf("%w: missing final CRLF", ErrMalformed)
			}
			return body, off + 2, nil
		}
		if len(b) < off+int(size)+2 {
			return nil, 0, ErrIncomplete
		}
		body = append(body, b[off:off+int(size)]...)
		off += int(size)
		if b[off] != '\r' || b[off+1] != '\n' {
			return nil, 0, fmt.Errorf("%w: chunk data not CRLF-terminated", ErrMalformed)
		}
		off += 2
	}
}

// WantsClose reports whether the message asked for the connection to be
// closed after this exchange.
func WantsClose(hs Headers) bool {
	return strings.EqualFold(hs.Get("Connection"), "close")
}
