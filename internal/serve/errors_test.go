package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bitset"
)

// Table-driven error-path tests for the tenant/admin API, pinning EXACT
// error strings and status codes (matching the style of the facade's
// estimator_errors_test.go): operators alert on these responses, so a
// refactor that rewords them is a breaking change that must show up here.
func TestAPIErrorStrings(t *testing.T) {
	d := New(Config{Shards: 1, QueueDepth: 64})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	defer d.Shutdown(context.Background())

	// One live tenant: quickstart topology (3 paths), window 100, with 5
	// snapshots ingested — enough to exercise warm-up and range errors.
	regBody, _ := json.Marshal(TenantConfig{
		Name: "alpha", Scenario: "quickstart", Seed: 1, Window: 100,
	})
	if status, body := post(t, srv.URL+"/v1/tenants", regBody); status != http.StatusCreated {
		t.Fatalf("registering alpha: status %d: %s", status, body)
	}
	if status, body := post(t, srv.URL+"/v1/ingest?tenant=alpha",
		[]byte(`{"reports":[[0],[1],[2],[0,1],[]]}`)); status != http.StatusAccepted {
		t.Fatalf("seeding alpha: status %d: %s", status, body)
	}

	mustJSON := func(cfg TenantConfig) []byte {
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name       string
		method     string
		path       string
		body       []byte
		wantStatus int
		wantErr    string
	}{
		{
			name: "unknown tenant (estimate)", method: http.MethodGet,
			path:       "/v1/estimate?tenant=ghost",
			wantStatus: http.StatusNotFound,
			wantErr:    `serve: unknown tenant "ghost" (registered: [alpha])`,
		},
		{
			name: "unknown tenant (ingest)", method: http.MethodPost,
			path: "/v1/ingest?tenant=ghost", body: []byte(`{"reports":[[0]]}`),
			wantStatus: http.StatusNotFound,
			wantErr:    `serve: unknown tenant "ghost" (registered: [alpha])`,
		},
		{
			name: "duplicate registration", method: http.MethodPost,
			path: "/v1/tenants", body: mustJSON(TenantConfig{Name: "alpha", Scenario: "quickstart", Window: 100}),
			wantStatus: http.StatusConflict,
			wantErr:    `serve: tenant "alpha" already registered`,
		},
		{
			name: "estimate before window warm", method: http.MethodGet,
			path:       "/v1/estimate?tenant=alpha",
			wantStatus: http.StatusTooEarly,
			wantErr:    `serve: tenant "alpha" window warming: 5/100 snapshots`,
		},
		{
			name: "register with empty name", method: http.MethodPost,
			path: "/v1/tenants", body: mustJSON(TenantConfig{Scenario: "quickstart", Window: 10}),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: register: tenant name is empty`,
		},
		{
			name: "register with zero window", method: http.MethodPost,
			path: "/v1/tenants", body: mustJSON(TenantConfig{Name: "w", Scenario: "quickstart"}),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: register tenant "w": window = 0, want > 0`,
		},
		{
			name: "register with neither scenario nor topology", method: http.MethodPost,
			path: "/v1/tenants", body: mustJSON(TenantConfig{Name: "b", Window: 10}),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: register tenant "b": specify exactly one of scenario or topology`,
		},
		{
			name: "register with unknown scenario", method: http.MethodPost,
			path: "/v1/tenants", body: mustJSON(TenantConfig{Name: "s", Scenario: "nope", Window: 10}),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: register tenant "s": scenario: unknown scenario "nope" (registered: [adversarial-loss diurnal diurnal-week flash-crowd gray-failure link-flap planetlab-replay quickstart worm])`,
		},
		{
			name: "register with unknown estimator", method: http.MethodPost,
			path: "/v1/tenants", body: mustJSON(TenantConfig{Name: "e", Scenario: "quickstart", Window: 10, Estimator: "nope"}),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: register tenant "e": tomography: NewWindow: unknown estimator "nope" (registered: [correlation independence mle theorem])`,
		},
		{
			name: "malformed ingest JSON", method: http.MethodPost,
			path: "/v1/ingest?tenant=alpha", body: []byte(`{not json`),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: decode probe batch: invalid character 'n' looking for beginning of object key string`,
		},
		{
			name: "ingest with no reports", method: http.MethodPost,
			path: "/v1/ingest?tenant=alpha", body: []byte(`{"reports":[]}`),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: probe batch carries no reports`,
		},
		{
			name: "ingest with negative path index", method: http.MethodPost,
			path: "/v1/ingest?tenant=alpha", body: []byte(`{"reports":[[-1]]}`),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: snapshot 0: negative path index -1`,
		},
		{
			name: "ingest with out-of-range path index", method: http.MethodPost,
			path: "/v1/ingest?tenant=alpha", body: []byte(`{"reports":[[0],[9]]}`),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: snapshot 1: path index 9 out of range for 3 paths`,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var status int
			var body string
			if tc.method == http.MethodGet {
				status, body = get(t, srv.URL+tc.path, nil)
			} else {
				status, body = post(t, srv.URL+tc.path, tc.body)
			}
			assertError(t, status, body, tc.wantStatus, tc.wantErr)
		})
	}

	// Oversized bodies, against a daemon whose MaxBody is far below a
	// registration document: the cap must hold whether the client declares
	// the length up front or streams the body chunked with none.
	small := New(Config{Shards: 1, QueueDepth: 8, MaxBody: 64})
	smallSrv := httptest.NewServer(small.Handler())
	defer smallSrv.Close()
	defer small.Shutdown(context.Background())
	if _, err := small.Register(TenantConfig{Name: "alpha", Scenario: "quickstart", Seed: 1, Window: 100}); err != nil {
		t.Fatal(err)
	}
	oversizedIngest := []byte(`{"reports":[` + strings.Repeat(`[0,1],`, 40) + `[2]]}`)
	oversizedRegistration := mustJSON(TenantConfig{
		Name: "a-tenant-name-long-enough-to-pass-the-cap", Scenario: "quickstart", Window: 100,
	})
	for _, tc := range []struct {
		name    string
		path    string
		body    []byte
		chunked bool
		wantErr string
	}{
		{
			name: "oversized ingest with Content-Length", path: "/v1/ingest?tenant=alpha",
			body:    oversizedIngest,
			wantErr: `serve: decode probe batch: reading body: http: request body too large`,
		},
		{
			name: "oversized chunked ingest", path: "/v1/ingest?tenant=alpha",
			body: oversizedIngest, chunked: true,
			wantErr: `serve: decode probe batch: reading body: http: request body too large`,
		},
		{
			name: "oversized registration", path: "/v1/tenants",
			body:    oversizedRegistration,
			wantErr: `serve: register: reading body: http: request body too large`,
		},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// A reader with no Len method makes the client send the body
			// chunked, without a Content-Length header.
			var body io.Reader = bytes.NewReader(tc.body)
			if tc.chunked {
				body = struct{ io.Reader }{body}
			}
			resp, err := http.Post(smallSrv.URL+tc.path, ContentTypeJSON, body)
			if err != nil {
				t.Fatalf("POST %s: %v", tc.path, err)
			}
			defer resp.Body.Close()
			got, _ := io.ReadAll(resp.Body)
			assertError(t, resp.StatusCode, string(got), http.StatusBadRequest, tc.wantErr)
		})
	}
}

// TestBinaryIngestErrorStrings pins the EXACT error string and status of
// every rejection the TOMOW1 binary wire decoder can produce, in the same
// style as TestAPIErrorStrings: the strings are operator-facing API
// surface, so rewording one is a breaking change that must show up here.
// The tenant is the quickstart topology (3 paths, one packed word per
// row).
func TestBinaryIngestErrorStrings(t *testing.T) {
	d := New(Config{Shards: 1, QueueDepth: 64})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	defer d.Shutdown(context.Background())

	regBody, _ := json.Marshal(TenantConfig{
		Name: "alpha", Scenario: "quickstart", Seed: 1, Window: 100,
	})
	if status, body := post(t, srv.URL+"/v1/tenants", regBody); status != http.StatusCreated {
		t.Fatalf("registering alpha: status %d: %s", status, body)
	}

	// mustBinary encodes a well-formed TOMOW1 body for the given path count.
	mustBinary := func(numPaths int, reports ...[]int) []byte {
		sets := make([]*bitset.Set, len(reports))
		for i, r := range reports {
			sets[i] = bitset.FromIndices(r...)
		}
		body, err := EncodeReportsBinary(sets, numPaths)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	// rawBinary assembles a TOMOW1 body from parts, with a correct CRC — for
	// structural corruptions the encoder refuses to produce.
	rawBinary := func(flags byte, numPaths, snaps int, payload []byte) []byte {
		out := make([]byte, binaryHeaderLen+len(payload))
		copy(out, binaryMagic)
		out[6] = binaryVersion
		out[7] = flags
		binary.LittleEndian.PutUint32(out[8:], uint32(numPaths))
		binary.LittleEndian.PutUint32(out[12:], uint32(snaps))
		binary.LittleEndian.PutUint32(out[16:], crc32.Checksum(payload, castagnoli))
		copy(out[binaryHeaderLen:], payload)
		return out
	}
	// fixCRC recomputes the header CRC after a structural corruption, so the
	// test reaches the structural error rather than the CRC one.
	fixCRC := func(body []byte) []byte {
		binary.LittleEndian.PutUint32(body[16:20], crc32.Checksum(body[binaryHeaderLen:], castagnoli))
		return body
	}
	corrupt := func(body []byte, at int, b byte) []byte {
		c := append([]byte(nil), body...)
		c[at] = b
		return c
	}
	le16 := func(vals ...uint16) []byte {
		out := make([]byte, 2*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint16(out[2*i:], v)
		}
		return out
	}

	// All-paths-congested rows make the encoder pick the dense payload (a
	// tie goes dense); a single sparse row stays sparse.
	dense := mustBinary(3, []int{0, 1, 2}, []int{0, 1, 2})
	sparseRow := mustBinary(3, []int{0, 2})
	crcFlip := corrupt(dense, len(dense)-1, dense[len(dense)-1]^0xFF)

	cases := []struct {
		name       string
		body       []byte
		wantStatus int
		wantErr    string
	}{
		{
			name: "truncated header", body: dense[:10],
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: binary probe batch: 10-byte body, want at least the 20-byte header`,
		},
		{
			name: "bad magic", body: corrupt(dense, 0, 'X'),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: binary probe batch: bad magic "XOMOW1"`,
		},
		{
			name: "unsupported version", body: corrupt(dense, 6, 2),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: binary probe batch: unsupported version 2`,
		},
		{
			name: "unknown flags", body: corrupt(dense, 7, 0x82),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: binary probe batch: unknown flags 0x82`,
		},
		{
			name: "path-count mismatch", body: mustBinary(5, []int{0, 4}),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: binary probe batch encodes 5 paths, tenant has 3`,
		},
		{
			name: "no reports", body: rawBinary(0, 3, 0, nil),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: binary probe batch carries no reports`,
		},
		{
			name: "snapshots over limit", body: rawBinary(0, 3, 5000, nil),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: binary probe batch carries 5000 snapshots, limit 4096`,
		},
		{
			name: "payload CRC mismatch", body: crcFlip,
			wantStatus: http.StatusBadRequest,
			wantErr: fmt.Sprintf(`serve: binary probe batch: payload CRC 0x%08x, header declares 0x%08x`,
				crc32.Checksum(crcFlip[binaryHeaderLen:], castagnoli),
				binary.LittleEndian.Uint32(crcFlip[16:20])),
		},
		{
			name: "dense payload length mismatch", body: fixCRC(append([]byte(nil), dense[:len(dense)-8]...)),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: binary probe batch: dense payload is 8 bytes, want 16 (2 snapshots x 1 words)`,
		},
		{
			name: "dense stray tail bit", body: rawBinary(0, 3, 1, []byte{1 << 3, 0, 0, 0, 0, 0, 0, 0}),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: snapshot 0: path index 3 out of range for 3 paths`,
		},
		{
			name: "sparse payload truncated", body: rawBinary(flagSparse, 3, 2, le16(1, 0)),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: binary probe batch: sparse payload truncated in snapshot 1`,
		},
		{
			name: "sparse index out of range", body: rawBinary(flagSparse, 3, 1, le16(1, 7)),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: snapshot 0: path index 7 out of range for 3 paths`,
		},
		{
			name: "sparse indices not ascending", body: rawBinary(flagSparse, 3, 1, le16(2, 2, 1)),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: binary probe batch: snapshot 0: path indices not strictly increasing`,
		},
		{
			name: "trailing payload bytes", body: fixCRC(append(append([]byte(nil), sparseRow...), 0, 0)),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: binary probe batch: 2 trailing payload bytes`,
		},
		{
			name: "JSON posted as binary", body: []byte(`{"reports":[[0],[1],[2]]}`),
			wantStatus: http.StatusBadRequest,
			wantErr:    `serve: binary probe batch: bad magic "{\"repo"`,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			status, body := postCT(t, srv.URL+"/v1/ingest?tenant=alpha", ContentTypeBinary, tc.body)
			assertError(t, status, body, tc.wantStatus, tc.wantErr)
		})
	}

	// And the happy path: a well-formed binary batch is accepted, under both
	// the bare media type and one carrying parameters.
	if status, body := postCT(t, srv.URL+"/v1/ingest?tenant=alpha", ContentTypeBinary, dense); status != http.StatusAccepted {
		t.Fatalf("valid binary ingest: status %d: %s", status, body)
	}
	if status, body := postCT(t, srv.URL+"/v1/ingest?tenant=alpha", ContentTypeBinary+"; v=1", sparseRow); status != http.StatusAccepted {
		t.Fatalf("valid binary ingest with media-type parameters: status %d: %s", status, body)
	}
}

// TestAPIShutdownErrors pins the rejection behavior of a draining daemon:
// ingest, estimate and registration during/after shutdown all answer 503
// with the same message.
func TestAPIShutdownErrors(t *testing.T) {
	d := New(Config{Shards: 1, QueueDepth: 8})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	if _, err := d.Register(TenantConfig{Name: "a", Scenario: "quickstart", Seed: 1, Window: 10}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	const want = `serve: daemon shutting down`
	status, body := post(t, srv.URL+"/v1/ingest?tenant=a", []byte(`{"reports":[[0]]}`))
	assertError(t, status, body, http.StatusServiceUnavailable, want)
	status, body = get(t, srv.URL+"/v1/estimate?tenant=a", nil)
	assertError(t, status, body, http.StatusServiceUnavailable, want)
	status, body = post(t, srv.URL+"/v1/tenants",
		[]byte(`{"name":"late","scenario":"quickstart","window":10}`))
	assertError(t, status, body, http.StatusServiceUnavailable, want)

	// A second Shutdown is itself an exact-string error.
	if _, err := d.Shutdown(ctx); err == nil || err.Error() != "serve: daemon already shut down" {
		t.Fatalf("second shutdown error = %v, want %q", err, "serve: daemon already shut down")
	}
}

// assertError checks status and the exact error-envelope message.
func assertError(t *testing.T, status int, body string, wantStatus int, wantErr string) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status = %d, want %d (body: %s)", status, wantStatus, body)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &envelope); err != nil {
		t.Fatalf("error body is not the JSON envelope: %q (%v)", body, err)
	}
	if envelope.Error != wantErr {
		t.Fatalf("error mismatch:\n got: %s\nwant: %s", envelope.Error, wantErr)
	}
}
