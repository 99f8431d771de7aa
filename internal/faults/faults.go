// Package faults is a deterministic fault-injection harness for the solve
// stack. An Injector decides, from a seed and an injection key (typically the
// sweep point index), whether a named injection site fires a fault and which
// kind: a panic, an injected timeout, a corrupted result, or a synthetic
// error. Decisions are pure functions of (seed, site, key), so chaos tests
// replay exactly; each (site, key) pair fires at most Times faults, so retry
// paths can be observed succeeding.
//
// The package follows the same contract as internal/obs: a nil *Injector and
// a nil *Point are valid, fully disabled injectors whose every method is a
// cheap no-op, so injection sites are threaded unconditionally and cost
// nothing in production. The injector travels through the existing
// context.Context plumbing (NewContext/WithKey/FromContext) rather than
// through every config struct, because the solve stack is already
// context-first.
package faults

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind classifies an injected fault.
type Kind int

// Fault kinds.
const (
	// None means the site does not fire for this key.
	None Kind = iota
	// KindPanic makes the site panic with an *InjectedPanic value, exercising
	// the stack's recover() boundaries.
	KindPanic
	// KindTimeout makes the site sleep for Config.Delay (context-aware) and
	// then fail with ErrTimeout, modeling a solver hang cut short.
	KindTimeout
	// KindError makes the site fail immediately with ErrInjected.
	KindError
	// KindCorrupt asks the site to corrupt its result (an invalid schedule or
	// NaN metric), exercising result validation instead of error paths.
	KindCorrupt
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case KindPanic:
		return "panic"
	case KindTimeout:
		return "timeout"
	case KindError:
		return "error"
	case KindCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Injection sites threaded through the solve stack.
const (
	// SiteSolve fires inside one solver invocation (scheduler.Solve and the
	// core fallback chain around it); all kinds apply.
	SiteSolve = "solve"
	// SiteEvaluate fires in the adaptive-resolution loop outside the solver's
	// own recover boundary; panics here must be caught by sweep workers,
	// server handlers, or hilp.Solve. Only KindPanic applies.
	SiteEvaluate = "evaluate"
	// SiteServe fires in the hilp-serve job runner; error kinds exercise the
	// service's retry/backoff path.
	SiteServe = "serve"
)

// ErrInjected is the base error of every non-panic injected fault.
var ErrInjected = errors.New("faults: injected fault")

// ErrTimeout is an injected solver hang; it wraps ErrInjected.
var ErrTimeout = fmt.Errorf("%w: timeout", ErrInjected)

// InjectedPanic is the value KindPanic panics with, so recover boundaries and
// tests can recognize synthetic panics.
type InjectedPanic struct {
	Site string
	Key  uint64
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("faults: injected panic at %s[%d]", p.Site, p.Key)
}

// Config parameterizes an Injector.
type Config struct {
	// Seed drives all decisions deterministically.
	Seed int64
	// Rate is the fraction of keys that fault per site, in [0, 1].
	Rate float64
	// Times bounds how often one (site, key) pair fires; 0 selects 1, so a
	// single retry of a faulted call succeeds.
	Times int
	// Delay is the injected-timeout sleep; 0 selects 10ms.
	Delay time.Duration
	// Kinds is the fault-kind palette a firing site draws from; empty selects
	// all kinds.
	Kinds []Kind
	// Sites restricts injection to the named sites; empty enables all.
	Sites []string
}

// Injector decides and records fault injections. The zero value of the
// pointer (nil) is a valid, disabled injector.
type Injector struct {
	cfg   Config
	sites map[string]bool

	mu    sync.Mutex
	count map[siteKey]int
	fired map[siteKey]Kind
}

type siteKey struct {
	site string
	key  uint64
}

// New builds an injector from cfg. A Rate of 0 yields an injector that never
// fires (but still costs one hash per site visit); use a nil *Injector for
// the truly disabled path.
func New(cfg Config) *Injector {
	if cfg.Times <= 0 {
		cfg.Times = 1
	}
	if cfg.Delay <= 0 {
		cfg.Delay = 10 * time.Millisecond
	}
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = []Kind{KindPanic, KindTimeout, KindError, KindCorrupt}
	}
	in := &Injector{cfg: cfg, count: map[siteKey]int{}, fired: map[siteKey]Kind{}}
	if len(cfg.Sites) > 0 {
		in.sites = map[string]bool{}
		for _, s := range cfg.Sites {
			in.sites[s] = true
		}
	}
	return in
}

// Enabled reports whether the injector can fire at all.
func (in *Injector) Enabled() bool { return in != nil && in.cfg.Rate > 0 }

// decide is the pure decision function: which kind (if any) site fires for key.
func (in *Injector) decide(site string, key uint64) Kind {
	if in == nil || in.cfg.Rate <= 0 {
		return None
	}
	if in.sites != nil && !in.sites[site] {
		return None
	}
	h := mix(uint64(in.cfg.Seed) ^ hashString(site) ^ mix(key+0x9e3779b97f4a7c15))
	// Top 53 bits give a uniform float in [0, 1).
	if float64(h>>11)/(1<<53) >= in.cfg.Rate {
		return None
	}
	return in.cfg.Kinds[int(mix(h)%uint64(len(in.cfg.Kinds)))]
}

// take consumes one firing of (site, key) when the decision matches want,
// honoring the Times budget, and records it.
func (in *Injector) take(site string, key uint64, want Kind) bool {
	if in.decide(site, key) != want {
		return false
	}
	sk := siteKey{site, key}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.count[sk] >= in.cfg.Times {
		return false
	}
	in.count[sk]++
	in.fired[sk] = want
	return true
}

// FiredKeys returns the sorted, deduplicated keys that actually fired a fault
// at any site. Chaos tests compare this against the set of failed or degraded
// sweep points.
func (in *Injector) FiredKeys() []uint64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	set := map[uint64]bool{}
	for sk := range in.fired {
		set[sk.key] = true
	}
	keys := make([]uint64, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// FiredCount returns the total number of faults fired.
func (in *Injector) FiredCount() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	total := 0
	for _, n := range in.count {
		total += n
	}
	return total
}

// Point binds an injector to one injection key (e.g. one sweep point). A nil
// *Point is a valid, disabled injection point.
type Point struct {
	inj *Injector
	key uint64
}

// Point derives the injection point for key. A nil injector yields nil.
func (in *Injector) Point(key uint64) *Point {
	if in == nil {
		return nil
	}
	return &Point{inj: in, key: key}
}

// Key returns the point's injection key.
func (p *Point) Key() uint64 {
	if p == nil {
		return 0
	}
	return p.key
}

// Enabled reports whether any site can fire for this point.
func (p *Point) Enabled() bool { return p != nil && p.inj.Enabled() }

// PanicNow panics with an *InjectedPanic when site decides KindPanic for this
// point. Call it inside the code region a recover boundary must protect.
func (p *Point) PanicNow(site string) {
	if p == nil || p.inj == nil {
		return
	}
	if p.inj.take(site, p.key, KindPanic) {
		panic(&InjectedPanic{Site: site, Key: p.key})
	}
}

// InjectErr returns an injected error when site decides KindTimeout or
// KindError for this point. Timeout kind first sleeps Config.Delay or until
// ctx is done, whichever comes first.
func (p *Point) InjectErr(ctx context.Context, site string) error {
	if p == nil || p.inj == nil {
		return nil
	}
	if p.inj.take(site, p.key, KindTimeout) {
		select {
		case <-time.After(p.inj.cfg.Delay):
		case <-ctx.Done():
		}
		return fmt.Errorf("%w (site %s, key %d)", ErrTimeout, site, p.key)
	}
	if p.inj.take(site, p.key, KindError) {
		return fmt.Errorf("%w (site %s, key %d)", ErrInjected, site, p.key)
	}
	return nil
}

// Corrupt reports whether the caller should corrupt its result (KindCorrupt
// decision), consuming one firing.
func (p *Point) Corrupt(site string) bool {
	if p == nil || p.inj == nil {
		return false
	}
	return p.inj.take(site, p.key, KindCorrupt)
}

// ctxKey carries a *Point through context.Context.
type ctxKey struct{}

// NewContext returns ctx carrying the injector at key 0. A nil injector
// returns ctx unchanged.
func NewContext(ctx context.Context, in *Injector) context.Context {
	if in == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, in.Point(0))
}

// WithKey re-keys the injection point carried by ctx (sweeps key each point
// by its index). Without an injector in ctx it is a no-op.
func WithKey(ctx context.Context, key uint64) context.Context {
	p, _ := ctx.Value(ctxKey{}).(*Point)
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, p.inj.Point(key))
}

// FromContext extracts the injection point, or nil (a valid disabled point).
func FromContext(ctx context.Context) *Point {
	p, _ := ctx.Value(ctxKey{}).(*Point)
	return p
}

// hashString is 64-bit FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ParseSpec parses a CLI fault spec like
//
//	seed=1,rate=0.2,times=1,delay=10ms,kinds=panic+timeout,sites=solve+evaluate
//
// into a Config. Empty kinds/sites select all. An empty spec is invalid.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, errors.New("faults: empty spec")
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("faults: bad spec element %q (want key=value)", part)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "rate":
			cfg.Rate, err = strconv.ParseFloat(v, 64)
			if err == nil && (cfg.Rate < 0 || cfg.Rate > 1) {
				err = fmt.Errorf("rate %g outside [0,1]", cfg.Rate)
			}
		case "times":
			cfg.Times, err = strconv.Atoi(v)
		case "delay":
			cfg.Delay, err = time.ParseDuration(v)
		case "kinds":
			for _, name := range strings.Split(v, "+") {
				switch name {
				case "panic":
					cfg.Kinds = append(cfg.Kinds, KindPanic)
				case "timeout":
					cfg.Kinds = append(cfg.Kinds, KindTimeout)
				case "error":
					cfg.Kinds = append(cfg.Kinds, KindError)
				case "corrupt", "nan":
					cfg.Kinds = append(cfg.Kinds, KindCorrupt)
				default:
					err = fmt.Errorf("unknown kind %q", name)
				}
				if err != nil {
					break
				}
			}
		case "sites":
			cfg.Sites = strings.Split(v, "+")
		default:
			err = fmt.Errorf("unknown key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("faults: spec %q: %v", part, err)
		}
	}
	return cfg, nil
}
