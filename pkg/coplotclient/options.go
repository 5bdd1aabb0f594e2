package coplotclient

// The /v1 query options, declared once. Each endpoint's options struct
// below is the only place its options live: the client encodes a call
// from it, coplotd decodes a request into it (and derives the cache
// key from it), and docs/API.md is rendered from it. A field declares
// one option with three tags:
//
//   - query: the query parameter name;
//   - default: the default docs/API.md shows — a literal value, which
//     may end in a parenthesized note ("0 (all)"); "server -FLAG" for a
//     value the server's -FLAG setting supplies; or no tag at all for a
//     required option;
//   - doc: what the option does.
//
// A nested struct field without a query tag (MachineOptions) declares
// its own fields in place. Integer options are counts, and the server
// refuses a negative one. Zero values mean the server defaults. The
// structs whose routes accept a zero that differs from its default
// (seed=0, landmarks=0, drift-pos=0) also carry an Explicit list naming
// options to send even at their zero value.

import (
	"fmt"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Option is one declared query option.
type Option struct {
	// Name is the query parameter.
	Name string
	// Default is the documented default ("" = required).
	Default string
	// Doc says what the option does.
	Doc string
	// Index locates the option's field in its struct, for
	// reflect.Value.FieldByIndex.
	Index []int

	kind reflect.Kind
}

// Required reports whether a request must carry the option.
func (o Option) Required() bool { return o.Default == "" }

// Value is the literal default with any parenthesized note removed
// ("0 (all)" → "0", "(all)" → "").
func (o Option) Value() string {
	if i := strings.IndexByte(o.Default, '('); i >= 0 {
		return strings.TrimSpace(o.Default[:i])
	}
	return o.Default
}

// Type names the option's wire type: "string", "int", "uint" or
// "float".
func (o Option) Type() string {
	switch o.kind {
	case reflect.Int:
		return "int"
	case reflect.Uint64:
		return "uint"
	case reflect.Float64:
		return "float"
	}
	return "string"
}

// Format renders the option's value in the struct v in its one wire
// form: strings raw, integers in decimal, floats as %g.
func (o Option) Format(v reflect.Value) string {
	f := v.FieldByIndex(o.Index)
	switch f.Kind() {
	case reflect.Int:
		return strconv.FormatInt(f.Int(), 10)
	case reflect.Uint64:
		return strconv.FormatUint(f.Uint(), 10)
	case reflect.Float64:
		return strconv.FormatFloat(f.Float(), 'g', -1, 64)
	}
	return f.String()
}

var declared sync.Map // reflect.Type → []Option

// Declared lists the options the struct type t declares, in
// declaration order.
func Declared(t reflect.Type) []Option {
	if opts, ok := declared.Load(t); ok {
		return opts.([]Option)
	}
	opts := declare(t, nil)
	declared.Store(t, opts)
	return opts
}

func declare(t reflect.Type, prefix []int) []Option {
	var opts []Option
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		index := append(slices.Clip(prefix), i)
		name, ok := f.Tag.Lookup("query")
		switch {
		case ok:
			opts = append(opts, Option{Name: name, Default: f.Tag.Get("default"), Doc: f.Tag.Get("doc"), Index: index, kind: f.Type.Kind()})
		case f.Type.Kind() == reflect.Struct:
			opts = append(opts, declare(f.Type, index)...)
		}
	}
	return opts
}

// Query encodes opts, one of the options structs or a pointer to one,
// as a URL query suffix ("" when nothing is sent): required options
// always, the others when set — a wire form other than the zero
// value's ("-0" is set), or named in the struct's Explicit list. The typed
// wrappers build their requests with it; Do callers can too. Any other
// argument, or an Explicit name the struct does not declare, panics.
func Query(opts any) string {
	v := reflect.Indirect(reflect.ValueOf(opts))
	if v.Kind() != reflect.Struct {
		panic(fmt.Sprintf("coplotclient.Query: %T is not an options struct", opts))
	}
	decl := Declared(v.Type())
	var explicit []string
	if f := v.FieldByName("Explicit"); f.IsValid() {
		explicit = f.Interface().([]string)
	}
	for _, name := range explicit {
		if !slices.ContainsFunc(decl, func(o Option) bool { return o.Name == name }) {
			panic(fmt.Sprintf("coplotclient.Query: Explicit names %q, which %s does not declare", name, v.Type()))
		}
	}
	q, zero := url.Values{}, reflect.Zero(v.Type())
	for _, o := range decl {
		if s := o.Format(v); o.Required() || s != o.Format(zero) || slices.Contains(explicit, o.Name) {
			q.Set(o.Name, s)
		}
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// MachineOptions describe the machine a log ran on.
type MachineOptions struct {
	Procs int    `query:"procs" default:"128" doc:"processors of the machine the log ran on"`
	Sched string `query:"sched" default:"easy" doc:"scheduler: nqs, easy, or gang"`
	Alloc string `query:"alloc" default:"unlimited" doc:"allocation: pow2, limited, or unlimited"`
}

// AnalyzeOptions are the options of POST /v1/analyze.
type AnalyzeOptions struct {
	Prune     float64 `query:"prune" default:"0" doc:"drop arrows with max correlation below this"`
	Seed      uint64  `query:"seed" default:"7" doc:"multi-start solver seed"`
	Procs     int     `query:"procs" default:"128" doc:"machine size for multipart SWF characterization"`
	Landmarks int     `query:"landmarks" default:"server -landmarks" doc:"landmark-MDS threshold (0 = solve exactly)"`
	Vars      string  `query:"vars" default:"(all)" doc:"comma-separated Table-1 variable codes to keep"`
	// Explicit names options sent even at their zero value, e.g.
	// "seed" for seed 0 or "landmarks" for an exact solve.
	Explicit []string
}

// VariablesOptions are the options of POST /v1/variables.
type VariablesOptions struct {
	Name    string `query:"name" default:"log" doc:"observation label in the report"`
	Machine MachineOptions
}

// HurstOptions are the options of POST /v1/hurst.
type HurstOptions struct {
	Name string `query:"name" default:"log" doc:"observation label in the report"`
}

// ValidateOptions are the options of POST /v1/validate.
type ValidateOptions struct {
	Name           string `query:"name" default:"log" doc:"observation label in the report"`
	Machine        MachineOptions
	DowntimeFactor float64 `query:"downtime-factor" default:"0" doc:"flag inter-arrival gaps this many times the median (0 = default)"`
	TopUser        float64 `query:"top-user" default:"0" doc:"flag a user owning more than this fraction of jobs (0 = default)"`
}

// ScaleLoadOptions are the options of POST /v1/scale-load.
type ScaleLoadOptions struct {
	Method string  `query:"method" doc:"section-8 operator: one of the cmd/loadctl method names"`
	Factor float64 `query:"factor" doc:"load scaling factor"`
	Procs  int     `query:"procs" default:"128" doc:"parallelism bound for job-size scaling"`
}

// GenerateOptions are the options of POST /v1/generate.
type GenerateOptions struct {
	Model string `query:"model" doc:"model name (feitelson96, feitelson97, downey, jann, lublin, ...)"`
	Procs int    `query:"procs" default:"128" doc:"machine size the model targets"`
	N     int    `query:"n" default:"10000" doc:"jobs to generate"`
	Seed  uint64 `query:"seed" default:"1" doc:"generator seed"`
	// Explicit names options sent even at their zero value.
	Explicit []string
}

// CorpusAdmitOptions are the options of POST /v1/corpus.
type CorpusAdmitOptions struct {
	Name    string `query:"name" doc:"entry label in embeddings and neighbor lists"`
	Machine MachineOptions
}

// MatchOptions are the options of POST /v1/match.
type MatchOptions struct {
	Name      string `query:"name" default:"query" doc:"query label in the joint embedding"`
	Seed      uint64 `query:"seed" default:"7" doc:"multi-start solver seed"`
	Landmarks int    `query:"landmarks" default:"server -landmarks" doc:"landmark-MDS threshold (0 = solve exactly)"`
	K         int    `query:"k" default:"0 (all)" doc:"truncate the neighbor list to the k nearest"`
	Machine   MachineOptions
	// Explicit names options sent even at their zero value.
	Explicit []string
}

// StreamOptions are the options of POST /v1/stream/{id}/append. All
// but Obs are pinned when the stream is created; later appends may
// repeat or omit them, but never change them.
type StreamOptions struct {
	// Obs, declared first, is the one option that varies per append.
	Obs        string `query:"obs" default:"log" doc:"observation the chunk folds into"`
	Seed       uint64 `query:"seed" default:"7" doc:"embedding solver seed (pinned at stream creation)"`
	Machine    MachineOptions
	DriftPos   float64 `query:"drift-pos" default:"server -drift-pos" doc:"positional drift threshold, a fraction of the map's RMS radius (negative disables position drift)"`
	DriftAngle float64 `query:"drift-angle" default:"server -drift-angle" doc:"arrow drift threshold in radians (negative disables arrow drift)"`
	Landmarks  int     `query:"landmarks" default:"server -landmarks" doc:"landmark-MDS threshold"`
	// Explicit names options sent even at their zero value.
	Explicit []string
}
