package server

import (
	"bytes"
	"testing"
)

// FuzzRunRequest feeds arbitrary POST /v1/runs bodies through the
// submit path's validation (decodeRunRequest, RunRequest.Spec and
// class) without submitting them, so no simulation starts. Every body
// must validate or fail with an error whose envelope is a 4xx: a panic
// or a 5xx is a malformed input the serving edge let through.
// testdata/fuzz/FuzzRunRequest holds the seed corpus: a valid body, a
// resume with a truncated frame, an unknown field, negative scale,
// timeout_s and max_wait_s, and bad policy, migration and priority.
func FuzzRunRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRunRequest(bytes.NewReader(body))
		if err == nil {
			if _, err = req.Spec(); err == nil {
				_, err = req.class()
			}
		}
		if err == nil {
			return
		}
		if code, status := codeFor(err); status < 400 || status >= 500 {
			t.Fatalf("body %q: %v is answered %d (%s)", body, err, status, code)
		}
	})
}
