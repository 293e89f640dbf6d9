package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"time"
)

// streamStats is one closed-loop wire stream as the client saw it.
type streamStats struct {
	// Latency runs from the first header byte written to the last reply
	// byte read.
	Latency time.Duration
	// SendBlock sums the time spent inside frame writes: on loopback an
	// unstalled write returns in microseconds, so the total is the time
	// the server's backpressure held the client.
	SendBlock time.Duration
	// Send runs from the first header byte to the zero frame's write;
	// Drain from there to the first reply byte.
	Send   time.Duration
	Drain  time.Duration
	Frames int
	Bytes  int64
	Reply  string
}

// streamFiles runs one cksumd wire stream against addr: the scenario
// header line, one length-prefixed frame per file, the zero frame, then
// the whole reply.  A reply the server marks as an error is returned as
// an error with Reply left empty, so a rejected stream counts as a
// failed operation and adds no latency sample.
func streamFiles(addr string, header []byte, files [][]byte) (streamStats, error) {
	var st streamStats
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return st, fmt.Errorf("dial %s: %w", addr, err)
	}
	defer conn.Close()

	start := time.Now()
	if _, err := conn.Write(append(header[:len(header):len(header)], '\n')); err != nil {
		return st, fmt.Errorf("write header: %w", err)
	}
	var frame []byte
	for i, data := range files {
		frame = binary.BigEndian.AppendUint32(frame[:0], uint32(len(data)))
		frame = append(frame, data...)
		t0 := time.Now()
		_, err := conn.Write(frame)
		st.SendBlock += time.Since(t0)
		if err != nil {
			return st, fmt.Errorf("write frame %d: %w", i, err)
		}
		st.Frames++
		st.Bytes += int64(len(data))
	}
	zero := time.Now()
	st.Send = zero.Sub(start)
	if _, err := conn.Write([]byte{0, 0, 0, 0}); err != nil {
		return st, fmt.Errorf("write zero frame: %w", err)
	}
	br := bufio.NewReader(conn)
	if _, err := br.Peek(1); err != nil {
		return st, fmt.Errorf("await reply: %w", err)
	}
	st.Drain = time.Since(zero)
	reply, err := io.ReadAll(br)
	st.Latency = time.Since(start)
	if err != nil {
		return st, fmt.Errorf("read reply: %w", err)
	}
	if r := string(reply); strings.HasPrefix(r, "error: ") {
		return st, fmt.Errorf("server rejected stream: %s", strings.TrimSpace(r))
	}
	st.Reply = string(reply)
	return st, nil
}
