package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"testing"
)

// referenceMultipartLogs is parseMultipartLogs' contract written the
// plain way: each part read whole with io.ReadAll from an untouched
// body.
func referenceMultipartLogs(body []byte, boundary string) ([]swfPart, error) {
	if boundary == "" {
		return nil, errors.New("no boundary")
	}
	mr := multipart.NewReader(bytes.NewReader(body), boundary)
	var parts []swfPart
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(p)
		if err != nil {
			return nil, err
		}
		name := p.FileName()
		if name == "" {
			name = p.FormName()
		}
		parts = append(parts, swfPart{name: name, data: data})
	}
	if len(parts) < 3 {
		return nil, fmt.Errorf("%d parts", len(parts))
	}
	return parts, nil
}

// is400 reports whether err answers 400 bad_request.
func is400(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusBadRequest && se.api == CodeBadRequest
}

// FuzzParseMultipartLogs holds the in-place multipart decoder to the
// plain one: on any body and boundary it never panics, it fails
// exactly when the reference fails, always as a 400 bad_request, and
// otherwise yields the reference's part names and bytes. The committed
// seeds (testdata/fuzz/FuzzParseMultipartLogs) hold a quoted-printable
// part, empty parts, and boundary-like bytes inside part data.
func FuzzParseMultipartLogs(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, boundary string) {
		want, wantErr := referenceMultipartLogs(bytes.Clone(body), boundary)
		got, err := parseMultipartLogs(bytes.Clone(body), boundary)
		if err != nil {
			if !is400(err) {
				t.Fatalf("error %v is not a 400 bad_request", err)
			}
			if wantErr == nil {
				t.Fatalf("in-place decode failed (%v) where the reference decoded %d parts", err, len(want))
			}
			return
		}
		if wantErr != nil {
			t.Fatalf("in-place decode succeeded where the reference failed: %v", wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d parts, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].name || !bytes.Equal(got[i].data, want[i].data) {
				t.Fatalf("part %d = %q %q, reference %q %q", i, got[i].name, got[i].data, want[i].name, want[i].data)
			}
		}
	})
}

// FuzzParseCSVDataset drives CSV bodies through /v1/analyze: whatever
// the body, the service answers 200 or a 4xx envelope, never a 5xx or
// a panic. The committed seeds (testdata/fuzz/FuzzParseCSVDataset)
// hold a valid matrix, a constant one, non-finite cells and a ragged
// quoted row.
func FuzzParseCSVDataset(f *testing.F) {
	svc := mustNew(f, Config{Jobs: 1, CorpusJobs: -1, CacheBytes: 1})
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code/100 != 4 {
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
	})
}
