package obs

import (
	"bytes"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// renderedByNeither lists the Stats leaves (by JSON path, indexes and map
// keys written as []) that neither WriteMetrics nor WriteText renders,
// each with the reason. Every other numeric leaf must reach at least one
// of the two surfaces.
var renderedByNeither = map[string]string{
	"stats.latency.buckets[]":                  "rendered cumulatively as le buckets; metrics.golden and the histogram lint pin them",
	"stats.streamTtfv.buckets[]":               "rendered cumulatively as le buckets; metrics.golden and the histogram lint pin them",
	"stats.streamTtfv.count":                   "the stream histogram's _count is its bucket total, and the text line counts streams",
	"stats.streamTtfv.min":                     "the text line prints the stream TTFV mean and max only",
	"stats.gossip.peers[].consecutiveFailures": "the breaker state and backoff window already show the failure run",
	"stats.gossip.peers[].recordsSent":         "the per-peer view reports records pulled; sent records are totalled per loop",
}

// TestEveryStatsLeafIsRendered walks every numeric leaf of a populated
// service.Stats, sets each to a distinct sentinel, renders both surfaces
// and fails for any sentinel that appears in neither — so a counter added
// to Stats but never rendered is caught here, not by an operator.
func TestEveryStatsLeafIsRendered(t *testing.T) {
	st := fixtureStats()
	// Keep only the tracked peer: an untracked one has no trust line, so
	// its reputation could not be rendered by design.
	for id, p := range st.Federation.Peers {
		if p.State == "" {
			delete(st.Federation.Peers, id)
		}
	}
	type leaf struct {
		path string
		want []string // renderings that count as the leaf being shown
	}
	var leaves []leaf
	next := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
				walk(v.Field(i), path+"."+name)
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"[]")
			}
		case reflect.Map:
			for _, k := range v.MapKeys() {
				e := reflect.New(v.Type().Elem()).Elem()
				e.Set(v.MapIndex(k))
				walk(e, path+"[]")
				v.SetMapIndex(k, e)
			}
		case reflect.Int, reflect.Int64, reflect.Uint64:
			next++
			n := int64(9_100_000 + 37*next)
			l := leaf{path: path, want: []string{strconv.FormatInt(n, 10)}}
			if v.Type() == reflect.TypeOf(time.Duration(0)) {
				d := time.Duration(n)
				l.want = append(l.want, d.String(), formatFloat(d.Seconds()))
			}
			if v.CanUint() {
				v.SetUint(uint64(n))
			} else {
				v.SetInt(n)
			}
			leaves = append(leaves, l)
		case reflect.Float64:
			next++
			f := float64(500+next) / 1000
			v.SetFloat(f)
			leaves = append(leaves, leaf{path: path, want: []string{strconv.FormatFloat(f, 'f', -1, 64)}})
		}
	}
	walk(reflect.ValueOf(&st).Elem(), "stats")

	var out bytes.Buffer
	if err := WriteMetrics(&out, "drift", st); err != nil {
		t.Fatal(err)
	}
	WriteText(&out, st)
	rendered := out.String()
	seen := map[string]bool{}
	for _, l := range leaves {
		if _, ok := renderedByNeither[l.path]; ok {
			seen[l.path] = true
			continue
		}
		found := false
		for _, w := range l.want {
			// A sentinel counts only as a whole number, not as part of one.
			if regexp.MustCompile(`(^|[^0-9.])` + regexp.QuoteMeta(w) + `([^0-9.]|$)`).MatchString(rendered) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s (sentinel %s) is rendered by neither WriteMetrics nor WriteText; render it or list it in renderedByNeither with a reason", l.path, strings.Join(l.want, " / "))
		}
	}
	for path := range renderedByNeither {
		if !seen[path] {
			t.Errorf("renderedByNeither lists %s, which is no numeric leaf of the fixture", path)
		}
	}
}
