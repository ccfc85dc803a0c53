package leakprof

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/frame"
	"repro/internal/report"
)

// StateCodec names a journal frame payload encoding. The codec applies to
// frames a store writes; reading is always codec-agnostic, because every
// frame self-describes in its first payload byte (JSON records open with
// '{', binary records with the binary magic). A journal may therefore mix
// codecs freely — a store that upgraded to the binary codec mid-log, or a
// binary store appending behind JSON segments, replays in one pass.
type StateCodec string

const (
	// StateCodecJSON writes frames as the v2 JSON records. It is the
	// compatibility fallback: journals written with it are readable by
	// v2-era stores.
	StateCodecJSON StateCodec = "json"
	// StateCodecBinary writes frames as versioned binary records:
	// varint-packed integers, a string table deduplicating the stack and
	// service keys that repeat across a record, and flate compression for
	// snapshot bodies. At a 100K-key steady state a snapshot segment is
	// several-fold smaller than its JSON form (see
	// TestBinarySnapshotSmallerThanJSON), and delta frames allocate
	// materially less than json.Marshal (see BenchmarkStateJournal).
	StateCodecBinary StateCodec = "binary"
)

// valid reports whether c names a known codec.
func (c StateCodec) valid() bool {
	return c == StateCodecJSON || c == StateCodecBinary
}

// Binary frame layout. The payload (what the length prefix and CRC in the
// frame header cover) is:
//
//	byte 0: binaryFrameMagic (0xB1 — never '{', so JSON frames are
//	        unambiguous)
//	byte 1: binaryFrameVersion
//	byte 2: flags (binaryFlagFlate: the body is a flate stream)
//	rest:   body (see encodeBinaryBody), flate-compressed when flagged
//
// The body packs integers as varints (zigzag for signed), floats as
// 8-byte little-endian IEEE bits, timestamps as a presence byte plus a
// zigzag varint of UnixNano (so the zero time survives a round trip),
// and strings as uvarint references into a deduplicating string table
// serialized ahead of the sections that reference it — the shared
// internal/frame primitives.
//
// Version history: 1 carried bugs through Sightings; 2 appends the
// bug's StaticAlarm (the static-analysis annotation the cross-linker
// decorates filed bugs with); 3 changes the string table's scope from
// one frame to one segment. A version-3 frame's leading table lists
// only the strings it *appends* to the segment's cumulative dictionary
// (taking the next consecutive indices), and its references index that
// dictionary — so steady-state delta frames that keep naming the same
// hot stack locations stop re-encoding them. Version 3 also adds the
// dictionary record kind (binaryKindDict): a seed of carried-over
// strings written at a segment's head, decoding to no journal record.
// Older frames (and whole older segments) decode unchanged: a
// version-1/2 frame's table is still self-contained, and a reader just
// resolves against it instead of the dictionary. The other direction
// is refused — a version-2 reader errors on version-3 frames, which is
// the intended "journal written by a newer build" signal.
const (
	binaryFrameMagic   = 0xB1
	binaryFrameVersion = 3
	binaryFlagFlate    = 1 << 0
)

// Binary record kinds (the first body field after the string table).
const (
	binaryKindDelta    = 1
	binaryKindSnapshot = 2
	binaryKindDict     = 3 // version 3: segment dictionary seed, no record
)

// stringRef abstracts the two string-table writers the binary body can
// target: the legacy per-frame StringTable and the segment-scoped
// DictTable.
type stringRef interface{ Ref(string) uint64 }

// encodePayload renders one journal record under the given codec. The
// binary form is a self-contained version-3 frame (a fresh dictionary,
// so every reference resolves within the frame); journal appends that
// share a segment dictionary go through encodeBinaryRecordDict instead.
func encodePayload(rec *journalRecord, codec StateCodec) ([]byte, error) {
	switch codec {
	case StateCodecBinary:
		return encodeBinaryRecord(rec)
	default:
		return json.Marshal(rec)
	}
}

// decodePayload decodes one frame payload, dispatching on the codec the
// frame self-describes with. It decodes without a segment dictionary,
// which suffices for JSON frames, version-1/2 frames, and self-contained
// version-3 frames; segment replay threads a dictionary via segDecoder.
// A dictionary-seed frame decodes to (nil, nil): callers skip it.
func decodePayload(payload []byte) (*journalRecord, error) {
	var d segDecoder
	return d.decodePayload(payload)
}

// segDecoder threads one segment's cumulative string dictionary through
// frame decoding. Each version-3 frame's leading table extends the
// dictionary before the frame's references resolve against it, keeping
// the reader in lockstep with the writer. The zero segDecoder decodes
// dictionary-free inputs (a nil dictionary is created on first need).
type segDecoder struct {
	dict *frame.Dict
}

func (d *segDecoder) decodePayload(payload []byte) (*journalRecord, error) {
	if len(payload) > 0 && payload[0] == binaryFrameMagic {
		return d.decodeBinaryRecord(payload)
	}
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// encodeBinaryRecord renders rec as a self-contained binary frame
// payload: a fresh dictionary makes the frame's appended-strings table
// carry every string it references, exactly the shape fold snapshots
// use for their single-frame segments.
func encodeBinaryRecord(rec *journalRecord) ([]byte, error) {
	return encodeBinaryRecordDict(rec, frame.NewDictTable(frame.NewDict()))
}

// encodeBinaryRecordDict renders rec as a version-3 binary frame payload
// whose references index dt's segment dictionary; strings the dictionary
// lacks ride the frame's leading table as appends. The caller owns the
// commit protocol: dt.Commit() only after the frame is written, so the
// in-memory dictionary never runs ahead of the on-disk segment. Snapshot
// bodies are flate-compressed: they carry the whole journal's state, and
// their string-heavy sections (locations, keys) compress several-fold.
func encodeBinaryRecordDict(rec *journalRecord, dt *frame.DictTable) ([]byte, error) {
	body := encodeBinaryBody(rec, dt)
	// The appended-strings table precedes the sections that reference
	// the dictionary so decoding is one pass.
	full := dt.AppendTo(make([]byte, 0, len(body)+64))
	full = append(full, body...)
	return finishBinaryPayload(full, rec.Kind == recordSnapshot)
}

// encodeDictSeedPayload renders a dictionary-seed frame payload: the
// seed strings as the frame's appends, then the dict record kind. It is
// written at a rolled segment's head so hot strings carried over from
// the previous segment keep resolving as references.
func encodeDictSeedPayload(seed []string) ([]byte, error) {
	dt := frame.NewDictTable(frame.NewDict())
	for _, s := range seed {
		dt.Ref(s)
	}
	body := binary.AppendUvarint(make([]byte, 0, 8), binaryKindDict)
	full := dt.AppendTo(make([]byte, 0, 64))
	full = append(full, body...)
	return finishBinaryPayload(full, false)
}

// finishBinaryPayload prepends the payload header and optionally flate-
// compresses the body. A body over maxFrameBytes is refused even when it
// would compress below it: decoding caps inflation at the same bound.
func finishBinaryPayload(full []byte, compress bool) ([]byte, error) {
	if len(full) > maxFrameBytes {
		return nil, fmt.Errorf("leakprof: binary record body of %d bytes exceeds %d", len(full), maxFrameBytes)
	}
	payload := []byte{binaryFrameMagic, binaryFrameVersion, 0}
	if compress {
		payload[2] |= binaryFlagFlate
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			return nil, fmt.Errorf("leakprof: binary codec: %w", err)
		}
		if _, err := zw.Write(full); err != nil {
			return nil, fmt.Errorf("leakprof: binary codec: %w", err)
		}
		if err := zw.Close(); err != nil {
			return nil, fmt.Errorf("leakprof: binary codec: %w", err)
		}
		return append(payload, buf.Bytes()...), nil
	}
	return append(payload, full...), nil
}

// encodeBinaryRecordLegacy renders rec exactly as version-2 stores did:
// a per-frame self-contained string table and the version-2 header
// byte. Nothing on the write path uses it anymore; it exists so the
// fallback-decode tests can manufacture genuine old-codec segments.
func encodeBinaryRecordLegacy(rec *journalRecord) ([]byte, error) {
	var tbl frame.StringTable
	body := encodeBinaryBody(rec, &tbl)
	full := tbl.AppendTo(make([]byte, 0, len(body)+64))
	full = append(full, body...)

	payload := []byte{binaryFrameMagic, 2, 0}
	if rec.Kind == recordSnapshot {
		payload[2] |= binaryFlagFlate
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			return nil, fmt.Errorf("leakprof: binary codec: %w", err)
		}
		if _, err := zw.Write(full); err != nil {
			return nil, fmt.Errorf("leakprof: binary codec: %w", err)
		}
		if err := zw.Close(); err != nil {
			return nil, fmt.Errorf("leakprof: binary codec: %w", err)
		}
		return append(payload, buf.Bytes()...), nil
	}
	return append(payload, full...), nil
}

func encodeBinaryBody(rec *journalRecord, tbl stringRef) []byte {
	b := make([]byte, 0, 256)
	kind := uint64(binaryKindDelta)
	if rec.Kind == recordSnapshot {
		kind = binaryKindSnapshot
	}
	b = binary.AppendUvarint(b, kind)
	b = frame.AppendTime(b, rec.SavedAt)

	b = binary.AppendUvarint(b, uint64(len(rec.Bugs)))
	for i := range rec.Bugs {
		bug := &rec.Bugs[i]
		b = binary.AppendUvarint(b, tbl.Ref(bug.Key))
		b = binary.AppendUvarint(b, tbl.Ref(bug.Service))
		b = binary.AppendUvarint(b, tbl.Ref(bug.Op))
		b = binary.AppendUvarint(b, tbl.Ref(bug.Location))
		b = binary.AppendUvarint(b, tbl.Ref(bug.Function))
		b = binary.AppendUvarint(b, tbl.Ref(bug.Owner))
		b = binary.AppendVarint(b, int64(bug.BlockedGoroutines))
		b = frame.AppendFloat(b, bug.Impact)
		b = frame.AppendTime(b, bug.FiledAt)
		b = frame.AppendTime(b, bug.LastSeen)
		b = binary.AppendUvarint(b, uint64(bug.Status))
		b = binary.AppendVarint(b, int64(bug.Sightings))
		b = binary.AppendUvarint(b, tbl.Ref(bug.StaticAlarm)) // version 2
	}

	b = binary.AppendUvarint(b, uint64(len(rec.Trend)))
	for key, obs := range rec.Trend {
		b = binary.AppendUvarint(b, tbl.Ref(key))
		b = binary.AppendUvarint(b, uint64(len(obs)))
		for _, o := range obs {
			b = frame.AppendTime(b, o.At)
			b = binary.AppendVarint(b, int64(o.Total))
			b = binary.AppendVarint(b, int64(o.Profiles))
			b = frame.AppendFloat(b, o.SumSquares)
		}
	}

	if rec.Sweep == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	sw := rec.Sweep
	b = frame.AppendTime(b, sw.At)
	b = binary.AppendUvarint(b, tbl.Ref(sw.Source))
	b = binary.AppendVarint(b, int64(sw.Profiles))
	b = binary.AppendVarint(b, int64(sw.Errors))
	b = binary.AppendVarint(b, int64(sw.Findings))
	b = binary.AppendUvarint(b, uint64(len(sw.FailedByService)))
	for svc, n := range sw.FailedByService {
		b = binary.AppendUvarint(b, tbl.Ref(svc))
		b = binary.AppendVarint(b, int64(n))
	}
	return b
}

// inflateBody inflates a flate-compressed frame body, failing rather
// than producing more than limit bytes: flate expands up to ~1000-fold,
// so without the cap a small crafted frame could demand gigabytes.
func inflateBody(body []byte, limit int64) ([]byte, error) {
	out, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(body)), limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(out)) > limit {
		return nil, fmt.Errorf("body inflates past %d bytes", limit)
	}
	return out, nil
}

// errBinaryTruncated aliases the shared primitive's truncation error so
// in-package codec paths (and their tests) keep one name for it.
var errBinaryTruncated = frame.ErrTruncated

// decodeBinaryRecord decodes one binary frame payload. Version-1/2
// frames resolve references against their own embedded table; version-3
// frames first extend the decoder's segment dictionary with their
// appended strings, then resolve against the whole dictionary. A
// dictionary-seed frame contributes its strings and decodes to
// (nil, nil).
func (d *segDecoder) decodeBinaryRecord(payload []byte) (*journalRecord, error) {
	if len(payload) < 3 {
		return nil, errBinaryTruncated
	}
	ver := payload[1]
	if ver > binaryFrameVersion {
		return nil, fmt.Errorf("leakprof: binary record version %d, newer than supported %d", ver, binaryFrameVersion)
	}
	flags, body := payload[2], payload[3:]
	if flags&binaryFlagFlate != 0 {
		var err error
		if body, err = inflateBody(body, maxFrameBytes); err != nil {
			return nil, fmt.Errorf("leakprof: inflating binary record: %w", err)
		}
	}
	r := frame.NewReader(body)

	tbl, err := r.StringTable()
	if err != nil {
		return nil, err
	}
	if ver >= 3 {
		if d.dict == nil {
			d.dict = frame.NewDict()
		}
		d.dict.Extend(tbl)
		tbl = d.dict.Strings()
	}

	rec := &journalRecord{}
	kind, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	switch kind {
	case binaryKindDelta:
		rec.Kind = recordDelta
	case binaryKindSnapshot:
		rec.Kind = recordSnapshot
	case binaryKindDict:
		if ver < 3 {
			return nil, fmt.Errorf("leakprof: dictionary record in version-%d frame", ver)
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("leakprof: binary record kind %d unknown", kind)
	}
	if rec.SavedAt, err = r.Time(); err != nil {
		return nil, err
	}

	nBugs, err := r.Count(10)
	if err != nil {
		return nil, err
	}
	if nBugs > 0 {
		rec.Bugs = make([]report.Bug, nBugs)
	}
	for i := range rec.Bugs {
		bug := &rec.Bugs[i]
		if bug.Key, err = r.Str(tbl); err != nil {
			return nil, err
		}
		if bug.Service, err = r.Str(tbl); err != nil {
			return nil, err
		}
		if bug.Op, err = r.Str(tbl); err != nil {
			return nil, err
		}
		if bug.Location, err = r.Str(tbl); err != nil {
			return nil, err
		}
		if bug.Function, err = r.Str(tbl); err != nil {
			return nil, err
		}
		if bug.Owner, err = r.Str(tbl); err != nil {
			return nil, err
		}
		var blocked, sightings int64
		if blocked, err = r.Varint(); err != nil {
			return nil, err
		}
		bug.BlockedGoroutines = int(blocked)
		if bug.Impact, err = r.Float64(); err != nil {
			return nil, err
		}
		if bug.FiledAt, err = r.Time(); err != nil {
			return nil, err
		}
		if bug.LastSeen, err = r.Time(); err != nil {
			return nil, err
		}
		status, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		bug.Status = report.Status(status)
		if sightings, err = r.Varint(); err != nil {
			return nil, err
		}
		bug.Sightings = int(sightings)
		if ver >= 2 {
			if bug.StaticAlarm, err = r.Str(tbl); err != nil {
				return nil, err
			}
		}
	}

	nKeys, err := r.Count(3)
	if err != nil {
		return nil, err
	}
	if nKeys > 0 {
		rec.Trend = make(map[string][]TrendObservation, nKeys)
	}
	for i := 0; i < nKeys; i++ {
		key, err := r.Str(tbl)
		if err != nil {
			return nil, err
		}
		nObs, err := r.Count(11)
		if err != nil {
			return nil, err
		}
		obs := make([]TrendObservation, nObs)
		for j := range obs {
			if obs[j].At, err = r.Time(); err != nil {
				return nil, err
			}
			var total, profiles int64
			if total, err = r.Varint(); err != nil {
				return nil, err
			}
			obs[j].Total = int(total)
			if profiles, err = r.Varint(); err != nil {
				return nil, err
			}
			obs[j].Profiles = int(profiles)
			if obs[j].SumSquares, err = r.Float64(); err != nil {
				return nil, err
			}
		}
		rec.Trend[key] = obs
	}

	present, err := r.Take(1)
	if err != nil {
		return nil, err
	}
	if present[0] == 0 {
		return rec, nil
	}
	sw := &SweepRecord{}
	if sw.At, err = r.Time(); err != nil {
		return nil, err
	}
	if sw.Source, err = r.Str(tbl); err != nil {
		return nil, err
	}
	var profiles, errCount, findings int64
	if profiles, err = r.Varint(); err != nil {
		return nil, err
	}
	sw.Profiles = int(profiles)
	if errCount, err = r.Varint(); err != nil {
		return nil, err
	}
	sw.Errors = int(errCount)
	if findings, err = r.Varint(); err != nil {
		return nil, err
	}
	sw.Findings = int(findings)
	nFailed, err := r.Count(2)
	if err != nil {
		return nil, err
	}
	if nFailed > 0 {
		sw.FailedByService = make(map[string]int, nFailed)
	}
	for i := 0; i < nFailed; i++ {
		svc, err := r.Str(tbl)
		if err != nil {
			return nil, err
		}
		n, err := r.Varint()
		if err != nil {
			return nil, err
		}
		sw.FailedByService[svc] = int(n)
	}
	rec.Sweep = sw
	return rec, nil
}
