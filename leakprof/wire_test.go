package leakprof

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestShardInboxBoundsClaimedLength is the regression test for the
// unauthenticated allocation: an 8-byte frame header claiming a
// 2³⁰−1-byte payload, POSTed to a token-less inbox, must fail with 400
// having allocated what actually arrived, not what the header claimed.
func TestShardInboxBoundsClaimedLength(t *testing.T) {
	var header [frameHeaderSize]byte
	binary.BigEndian.PutUint32(header[0:4], 1<<30-1)
	inbox := NewShardInbox(1)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(header[:]))
	rec := httptest.NewRecorder()
	inbox.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)

	if rec.Code != http.StatusBadRequest {
		t.Fatalf("8-byte POST: got %d, want 400", rec.Code)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("8-byte POST allocated %d bytes, want < 1 MiB", got)
	}
}

// TestInflateBodyCap checks the flate cap shared by the shard-report
// and journal decoders: a body inflating past the limit fails, one at
// the limit decodes intact.
func TestInflateBodyCap(t *testing.T) {
	plain := bytes.Repeat([]byte("leak"), 4096)
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(plain)
	zw.Close()

	got, err := inflateBody(buf.Bytes(), int64(len(plain)))
	if err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("inflate at the limit: %d bytes, err %v; want %d bytes intact", len(got), err, len(plain))
	}
	if _, err := inflateBody(buf.Bytes(), int64(len(plain))-1); err == nil {
		t.Fatal("inflate past the limit succeeded")
	}
}

// frameShardPayload frames payload with its length and a freshly
// computed CRC, so a mutated payload reaches the decoder.
func frameShardPayload(payload []byte) []byte {
	out := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// FuzzReadShardReport fuzzes the shard-report decoder past its
// checksum: the fuzzer mutates the frame payload and the target
// recomputes the CRC around it. Invalid payloads must fail cleanly
// (never panic); a payload that decodes must survive a write/read round
// trip unchanged.
func FuzzReadShardReport(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	agg := foldAll(50, randomSweep(rng))
	seeds := []*ShardReport{
		{Shard: "s", Profiles: 1},
		{
			Shard: "shard-1", Seq: 3, At: time.Unix(1000, 0).UTC(), Profiles: agg.Profiles(), Errors: 1,
			Services: agg.ServiceProfiles(), FailedByService: map[string]int{"pay": 1},
			Failures: []SweepFailure{{Service: "pay", Instance: "pay-01"}}, Moments: agg.Moments(), Err: "partial",
		},
	}
	for _, rep := range seeds {
		payload, err := encodeShardReport(rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	// A flate-compressed body: enough moments to cross wireFlateMin.
	big := &ShardReport{Shard: "big"}
	for len(big.Moments) < 200 {
		big.Moments = append(big.Moments, agg.Moments()...)
	}
	payload, err := encodeShardReport(big)
	if err != nil {
		f.Fatal(err)
	}
	if payload[2]&binaryFlagFlate == 0 {
		f.Fatal("seed drift: the large report no longer ships flate-compressed")
	}
	f.Add(payload)

	f.Fuzz(func(t *testing.T, payload []byte) {
		rep, err := ReadShardReport(bytes.NewReader(frameShardPayload(payload)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteShardReport(&buf, rep); err != nil {
			t.Fatalf("re-encoding a decoded report: %v", err)
		}
		again, err := ReadShardReport(&buf)
		if err != nil {
			t.Fatalf("re-reading a re-encoded report: %v", err)
		}
		if !sameShardReport(rep, again) {
			t.Fatalf("round trip diverged\nfirst  %+v\nsecond %+v", rep, again)
		}
	})
}

// sameShardReport is reflect.DeepEqual with float moments compared by
// bit pattern, so a NaN the fuzzer planted still round-trips as equal.
// It zeroes both reports' SumSquares once compared.
func sameShardReport(a, b *ShardReport) bool {
	if len(a.Moments) != len(b.Moments) {
		return false
	}
	for i := range a.Moments {
		if math.Float64bits(a.Moments[i].SumSquares) != math.Float64bits(b.Moments[i].SumSquares) {
			return false
		}
		a.Moments[i].SumSquares, b.Moments[i].SumSquares = 0, 0
	}
	return reflect.DeepEqual(a, b)
}
