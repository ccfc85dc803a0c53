package leakprof

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/frame"
)

// ShardReport is one shard worker's folded contribution to a distributed
// sweep: the mergeable moments for the endpoint partition it swept, plus
// the bookkeeping a coordinator needs to reassemble the exact single-
// process sweep — per-service profiled-instance counts (the RMS/mean
// denominators), per-service failure tallies (so global error budgets
// can be enforced from shard-local enforcement), and the capped failure
// detail. A report is O(services x locations), independent of fleet and
// profile size, which is the point: shards ship statistics, not dumps.
type ShardReport struct {
	// Shard names the worker (stable across sweeps; used in failure
	// attribution when a whole shard is lost).
	Shard string
	// Seq is the worker's sweep sequence number, monotonically increasing
	// per worker pipeline (assigned by ShardSweep). A coordinator inbox
	// uses (Shard, Seq) to drop a report the worker POSTed twice — a
	// retried POST whose first attempt actually landed — instead of
	// double-counting its moments. Zero means unsequenced (a v1 report,
	// or a hand-built one) and is never deduplicated.
	Seq uint64
	// At is the shard's sweep start time.
	At time.Time
	// Profiles and Errors count the shard's folded and failed instances.
	Profiles int
	Errors   int
	// Services maps service name to profiled-instance count for the
	// shard's partition — Aggregator.MergeMoments' denominator input.
	Services map[string]int
	// FailedByService tallies the shard's failed instances per service,
	// uncapped. The coordinator sums these across shards and journals the
	// sum, so the next sweep's global error budget sees every failure.
	FailedByService map[string]int
	// Failures details failed instances, capped at maxSweepFailures.
	Failures []SweepFailure
	// Moments are the shard's per-group streaming moments, sorted by key.
	Moments []Moment
	// Err carries the shard's source-level sweep error, if any.
	Err string
}

// Shard-report frame layout. The outer framing is the journal's: a
// 4-byte big-endian payload length and a 4-byte CRC-32 (IEEE) of the
// payload, so a torn or bit-flipped report is detected before decoding.
// The payload is:
//
//	byte 0: wireFrameMagic (0xB2 — distinct from journal frames' 0xB1)
//	byte 1: wireFrameVersion
//	byte 2: flags (binaryFlagFlate: the body is a flate stream)
//	rest:   body
//
// The body reuses the journal codec's primitives — varints (zigzag for
// signed), 8-byte little-endian IEEE floats, presence-byte timestamps —
// and opens with ONE string table shared by every section and record in
// the report: service names, locations, and functions repeat across the
// moments of a shard, so the dictionary amortises them once per report
// rather than once per record.
// Version history: v1 had no sequence number; v2 appends Seq after the
// Err ref. Decoding accepts both — a v1 frame reads back with Seq 0.
const (
	wireFrameMagic   = 0xB2
	wireFrameVersion = 2
)

// WriteShardReport frames and writes one report.
func WriteShardReport(w io.Writer, rep *ShardReport) error {
	payload, err := encodeShardReport(rep)
	if err != nil {
		return err
	}
	var header [frameHeaderSize]byte
	binary.BigEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("leakprof: writing shard report: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("leakprof: writing shard report: %w", err)
	}
	return nil
}

// ReadShardReport reads and decodes one framed report.
func ReadShardReport(r io.Reader) (*ShardReport, error) {
	var header [frameHeaderSize]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("leakprof: reading shard report: %w", err)
	}
	length := binary.BigEndian.Uint32(header[0:4])
	sum := binary.BigEndian.Uint32(header[4:8])
	if length == 0 || length > maxFrameBytes {
		return nil, fmt.Errorf("leakprof: shard report claims implausible length %d", length)
	}
	// The length prefix is untrusted until the checksum passes: grow the
	// payload only as bytes arrive, so a header claiming a gigabyte costs
	// what the sender actually sends.
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err != nil {
		return nil, fmt.Errorf("leakprof: reading shard report: %w", err)
	}
	if len(payload) < int(length) {
		return nil, fmt.Errorf("leakprof: reading shard report: %w", io.ErrUnexpectedEOF)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, errors.New("leakprof: shard report checksum mismatch")
	}
	return decodeShardReport(payload)
}

// wireFlateMin is the body size below which a report ships uncompressed:
// a flate writer costs several hundred KB of allocation, which dwarfs a
// small report — compression pays only once the string-heavy moment
// sections grow past it. The flag byte keeps decoding unambiguous.
const wireFlateMin = 4 << 10

// encodeShardReport renders the frame payload (magic through body).
func encodeShardReport(rep *ShardReport) ([]byte, error) {
	var tbl frame.StringTable
	body := encodeShardBody(rep, &tbl)
	full := tbl.AppendTo(make([]byte, 0, len(body)+64))
	full = append(full, body...)

	if len(full) > maxFrameBytes {
		return nil, fmt.Errorf("leakprof: shard report body of %d bytes exceeds %d", len(full), maxFrameBytes)
	}
	if len(full) < wireFlateMin {
		return append([]byte{wireFrameMagic, wireFrameVersion, 0}, full...), nil
	}
	payload := []byte{wireFrameMagic, wireFrameVersion, binaryFlagFlate}
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, fmt.Errorf("leakprof: shard report codec: %w", err)
	}
	if _, err := zw.Write(full); err != nil {
		return nil, fmt.Errorf("leakprof: shard report codec: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("leakprof: shard report codec: %w", err)
	}
	return append(payload, buf.Bytes()...), nil
}

func encodeShardBody(rep *ShardReport, tbl *frame.StringTable) []byte {
	b := make([]byte, 0, 256)
	b = binary.AppendUvarint(b, tbl.Ref(rep.Shard))
	b = frame.AppendTime(b, rep.At)
	b = binary.AppendVarint(b, int64(rep.Profiles))
	b = binary.AppendVarint(b, int64(rep.Errors))
	b = binary.AppendUvarint(b, tbl.Ref(rep.Err))
	b = binary.AppendUvarint(b, rep.Seq)

	b = binary.AppendUvarint(b, uint64(len(rep.Services)))
	for svc, n := range rep.Services {
		b = binary.AppendUvarint(b, tbl.Ref(svc))
		b = binary.AppendVarint(b, int64(n))
	}
	b = binary.AppendUvarint(b, uint64(len(rep.FailedByService)))
	for svc, n := range rep.FailedByService {
		b = binary.AppendUvarint(b, tbl.Ref(svc))
		b = binary.AppendVarint(b, int64(n))
	}
	b = binary.AppendUvarint(b, uint64(len(rep.Failures)))
	for _, f := range rep.Failures {
		b = binary.AppendUvarint(b, tbl.Ref(f.Service))
		b = binary.AppendUvarint(b, tbl.Ref(f.Instance))
		msg := ""
		if f.Err != nil {
			msg = f.Err.Error()
		}
		b = binary.AppendUvarint(b, tbl.Ref(msg))
	}
	b = binary.AppendUvarint(b, uint64(len(rep.Moments)))
	for i := range rep.Moments {
		m := &rep.Moments[i]
		b = binary.AppendUvarint(b, tbl.Ref(m.Service))
		b = binary.AppendUvarint(b, tbl.Ref(m.Op.Op))
		b = binary.AppendUvarint(b, tbl.Ref(m.Op.Location))
		b = binary.AppendUvarint(b, tbl.Ref(m.Op.Function))
		nilCh := byte(0)
		if m.Op.NilChannel {
			nilCh = 1
		}
		b = append(b, nilCh)
		b = binary.AppendVarint(b, int64(m.Op.WaitTime))
		b = binary.AppendVarint(b, int64(m.Total))
		b = binary.AppendVarint(b, int64(m.Instances))
		b = binary.AppendVarint(b, int64(m.ServiceProfiles))
		b = binary.AppendVarint(b, int64(m.Suspicious))
		b = frame.AppendFloat(b, m.SumSquares)
		b = binary.AppendVarint(b, int64(m.MaxCount))
		b = binary.AppendUvarint(b, tbl.Ref(m.MaxInstance))
	}
	return b
}

func decodeShardReport(payload []byte) (*ShardReport, error) {
	if len(payload) < 3 {
		return nil, errBinaryTruncated
	}
	if payload[0] != wireFrameMagic {
		return nil, fmt.Errorf("leakprof: not a shard report (leading byte 0x%02x)", payload[0])
	}
	if payload[1] > wireFrameVersion {
		return nil, fmt.Errorf("leakprof: shard report version %d, newer than supported %d", payload[1], wireFrameVersion)
	}
	flags, body := payload[2], payload[3:]
	if flags&binaryFlagFlate != 0 {
		var err error
		if body, err = inflateBody(body, maxFrameBytes); err != nil {
			return nil, fmt.Errorf("leakprof: inflating shard report: %w", err)
		}
	}
	r := frame.NewReader(body)

	tbl, err := r.StringTable()
	if err != nil {
		return nil, err
	}

	rep := &ShardReport{}
	if rep.Shard, err = r.Str(tbl); err != nil {
		return nil, err
	}
	if rep.At, err = r.Time(); err != nil {
		return nil, err
	}
	var v int64
	if v, err = r.Varint(); err != nil {
		return nil, err
	}
	rep.Profiles = int(v)
	if v, err = r.Varint(); err != nil {
		return nil, err
	}
	rep.Errors = int(v)
	if rep.Err, err = r.Str(tbl); err != nil {
		return nil, err
	}
	if payload[1] >= 2 {
		if rep.Seq, err = r.Uvarint(); err != nil {
			return nil, err
		}
	}

	for _, dst := range []*map[string]int{&rep.Services, &rep.FailedByService} {
		n, err := r.Count(2)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			*dst = make(map[string]int, n)
		}
		for i := 0; i < n; i++ {
			svc, err := r.Str(tbl)
			if err != nil {
				return nil, err
			}
			v, err := r.Varint()
			if err != nil {
				return nil, err
			}
			(*dst)[svc] = int(v)
		}
	}

	nFail, err := r.Count(3)
	if err != nil {
		return nil, err
	}
	if nFail > 0 {
		rep.Failures = make([]SweepFailure, nFail)
	}
	for i := range rep.Failures {
		f := &rep.Failures[i]
		if f.Service, err = r.Str(tbl); err != nil {
			return nil, err
		}
		if f.Instance, err = r.Str(tbl); err != nil {
			return nil, err
		}
		msg, err := r.Str(tbl)
		if err != nil {
			return nil, err
		}
		if msg != "" {
			f.Err = errors.New(msg)
		}
	}

	nMom, err := r.Count(16)
	if err != nil {
		return nil, err
	}
	if nMom > 0 {
		rep.Moments = make([]Moment, nMom)
	}
	for i := range rep.Moments {
		m := &rep.Moments[i]
		if m.Service, err = r.Str(tbl); err != nil {
			return nil, err
		}
		if m.Op.Op, err = r.Str(tbl); err != nil {
			return nil, err
		}
		if m.Op.Location, err = r.Str(tbl); err != nil {
			return nil, err
		}
		if m.Op.Function, err = r.Str(tbl); err != nil {
			return nil, err
		}
		nilCh, err := r.Take(1)
		if err != nil {
			return nil, err
		}
		m.Op.NilChannel = nilCh[0] != 0
		if v, err = r.Varint(); err != nil {
			return nil, err
		}
		m.Op.WaitTime = v
		if v, err = r.Varint(); err != nil {
			return nil, err
		}
		m.Total = int(v)
		if v, err = r.Varint(); err != nil {
			return nil, err
		}
		m.Instances = int(v)
		if v, err = r.Varint(); err != nil {
			return nil, err
		}
		m.ServiceProfiles = int(v)
		if v, err = r.Varint(); err != nil {
			return nil, err
		}
		m.Suspicious = int(v)
		if m.SumSquares, err = r.Float64(); err != nil {
			return nil, err
		}
		if v, err = r.Varint(); err != nil {
			return nil, err
		}
		m.MaxCount = int(v)
		if m.MaxInstance, err = r.Str(tbl); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
