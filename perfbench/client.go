package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/qipc"
)

// clientUserPrefix starts the handshake user of every benchmark client; the
// rest is the client number, which the traced handler reads back.
const clientUserPrefix = "bench"

// qclient is one Q application connection: it sends a sync query and waits
// for the response, as q clients do, so a set of them is a closed loop.
type qclient struct {
	id   int
	conn net.Conn
	br   *bufio.Reader
	seq  uint64
	tr   *tracer // nil when untraced
}

func dialQ(addr string, id int, tr *tracer) (*qclient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := qipc.ClientHandshake(conn, fmt.Sprintf("%s%d", clientUserPrefix, id), ""); err != nil {
		conn.Close()
		return nil, err
	}
	return &qclient{id: id, conn: conn, br: bufio.NewReader(conn), tr: tr}, nil
}

func (c *qclient) close() error { return c.conn.Close() }

// query sends q and returns the decoded response, the raw response frame
// and the round trip: from the request write to the response fully
// decoded. A q error response is returned as an error.
func (c *qclient) query(q string) (qval.Value, []byte, time.Duration, error) {
	id := requestID(c.id, c.seq)
	c.seq++
	var tstart int64
	if c.tr != nil {
		tstart = c.tr.now()
	}
	start := time.Now()
	if err := qipc.WriteMessage(c.conn, qipc.Sync, qval.CharVec(q)); err != nil {
		return nil, nil, 0, err
	}
	raw, err := readFrame(c.br)
	if err != nil {
		return nil, nil, 0, err
	}
	v, err := decodeFrame(raw)
	rt := time.Since(start)
	if c.tr != nil {
		c.tr.record(span{kind: spanClient, req: id, start: tstart, end: c.tr.now(), n: int64(len(raw))})
	}
	if err != nil {
		return nil, raw, rt, err
	}
	if qe, ok := v.(*qval.QError); ok {
		return nil, raw, rt, fmt.Errorf("q error '%s", qe.Msg)
	}
	return v, raw, rt, nil
}

// readFrame reads one whole QIPC message as sent: header and payload.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n < 8 || n > 1<<30 {
		return nil, fmt.Errorf("qipc: implausible message length %d", n)
	}
	buf := make([]byte, n)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[8:]); err != nil {
		return nil, err
	}
	return buf, nil
}

func decodeFrame(raw []byte) (qval.Value, error) {
	if raw[1] != byte(qipc.Response) {
		return nil, errors.New("qipc: reply is not a response message")
	}
	if raw[2] == 1 {
		var err error
		if raw, err = qipc.Decompress(raw); err != nil {
			return nil, err
		}
	}
	v, _, err := qipc.DecodeValue(raw[8:])
	return v, err
}
