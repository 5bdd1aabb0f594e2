package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkAnalyzeSWF times POST /v1/analyze over 15 logs of 2000 jobs
// each, the shape of the paper's maps, through the in-process handler
// on a one-worker service. cold sends logs the service has not seen,
// so every part is parsed and characterized; warm-parts sends logs it
// has seen under new part names, so the response still misses but
// every part's characterization is a store hit. Building each request
// body is outside the timer.
func BenchmarkAnalyzeSWF(b *testing.B) {
	const nLogs, jobs = 15, 2000
	base := make([][]byte, nLogs)
	for k := range base {
		base[k] = swfBody(b, uint64(100+k), jobs)
	}
	request := func(label string, logs [][]byte) *http.Request {
		names := make([]string, len(logs))
		for k := range names {
			names[k] = fmt.Sprintf("%s-%d.swf", label, k)
		}
		body, ctype := multipartLogs(b, names, logs)
		req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		return req
	}
	serve := func(b *testing.B, svc *Service, req *http.Request) {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Coplot-Cache") != "miss" {
			b.Fatalf("status %d, cache %q: %.200s", rec.Code, rec.Header().Get("X-Coplot-Cache"), rec.Body)
		}
	}
	b.Run("cold", func(b *testing.B) {
		svc := mustNew(b, Config{Jobs: 1, CorpusJobs: -1})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// A leading comment line makes each log's bytes new while
			// leaving its jobs, and so its parse, as they were.
			logs := make([][]byte, nLogs)
			for k := range logs {
				logs[k] = append([]byte(fmt.Sprintf("; cold %d\n", i)), base[k]...)
			}
			req := request(fmt.Sprintf("c%d", i), logs)
			b.StartTimer()
			serve(b, svc, req)
		}
	})
	b.Run("warm-parts", func(b *testing.B) {
		svc := mustNew(b, Config{Jobs: 1, CorpusJobs: -1})
		serve(b, svc, request("prime", base))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			req := request(fmt.Sprintf("w%d", i), base)
			b.StartTimer()
			serve(b, svc, req)
		}
	})
}
