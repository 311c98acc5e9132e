package workload

import (
	"math"
	"math/rand"
	"time"

	"dnsnoise/internal/cache"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/labelgen"
	"dnsnoise/internal/resolver"
)

// GeneratorConfig sizes the client population and traffic volume.
type GeneratorConfig struct {
	Seed int64
	// Clients is the stub-resolver population size (default 5000).
	Clients int
	// BaseEventsPerDay is the February-scale query volume; each profile's
	// VolumeScale multiplies it (default 200_000).
	BaseEventsPerDay int
}

func (c *GeneratorConfig) setDefaults() {
	if c.Clients == 0 {
		c.Clients = 5000
	}
	if c.BaseEventsPerDay == 0 {
		c.BaseEventsPerDay = 200_000
	}
}

// Generator produces client query streams against a Registry.
type Generator struct {
	cfg       GeneratorConfig
	registry  *Registry
	rng       *rand.Rand
	nxPool    []string
	nxPoolCap int
}

// NewGenerator builds a generator over registry.
func NewGenerator(registry *Registry, cfg GeneratorConfig) *Generator {
	cfg.setDefaults()
	return &Generator{
		cfg:       cfg,
		registry:  registry,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		nxPoolCap: cfg.BaseEventsPerDay / 40,
	}
}

// EventsFor returns the event count a profile's day will produce.
func (g *Generator) EventsFor(p Profile) int {
	scale := p.VolumeScale
	if scale <= 0 {
		scale = 1
	}
	return int(float64(g.cfg.BaseEventsPerDay) * scale)
}

// DayStream is one day's query stream, drawn on demand in timestamp order.
// A stream consumes its generator's rng, so at most one DayStream per
// generator may be active at a time.
type DayStream struct {
	g       *Generator
	p       Profile
	day     time.Time       // midnight of the profile's date, in its location
	offsets []time.Duration // each query's time after day, 8 bytes where a time.Time is 24
	disp    *zonePicker
	nonDisp *zonePicker
	i       int
}

// StartDay applies the profile to the registry (TTL mixture, measurement
// boost) and prepares the day's stream. The same generator state always
// draws the same queries, in the same order.
func (g *Generator) StartDay(p Profile) *DayStream {
	p.ApplyToRegistry(g.registry, g.rng)
	offsets := diurnalOffsets(g.rng, g.EventsFor(p))

	dispPicker := newZonePicker(g.registry.Disposable)
	// CDN zones receive direct client queries alongside their
	// CNAME-driven traffic: sharded content URLs embed the CDN names.
	ordinary := make([]*ZoneSpec, 0, len(g.registry.NonDisposable)+len(g.registry.CDN))
	ordinary = append(ordinary, g.registry.NonDisposable...)
	ordinary = append(ordinary, g.registry.CDN...)
	return &DayStream{
		g:       g,
		p:       p,
		day:     time.Date(p.Date.Year(), p.Date.Month(), p.Date.Day(), 0, 0, 0, 0, p.Date.Location()),
		offsets: offsets,
		disp:    dispPicker,
		nonDisp: newZonePicker(ordinary),
	}
}

// Next draws the day's next query in timestamp order; ok is false once the
// day is exhausted.
func (s *DayStream) Next() (q resolver.Query, ok bool) {
	if s.i >= len(s.offsets) {
		return resolver.Query{}, false
	}
	q = s.g.nextQuery(s.p, s.day.Add(s.offsets[s.i]), s.disp, s.nonDisp)
	s.i++
	return q, true
}

// Remaining reports how many queries the stream has left.
func (s *DayStream) Remaining() int { return len(s.offsets) - s.i }

// nextQuery draws a single query according to the profile mix.
func (g *Generator) nextQuery(p Profile, at time.Time, disp, nonDisp *zonePicker) resolver.Query {
	client := uint32(g.rng.Intn(g.cfg.Clients))
	r := g.rng.Float64()
	switch {
	case r < p.NXFrac:
		return resolver.Query{
			Time: at, ClientID: client,
			Name: g.nxName(), Type: dnsmsg.TypeA,
			Category: cache.CategoryOther,
		}
	case r < p.NXFrac+p.DisposableFrac:
		zone := disp.pick(g.rng)
		name, qtype := zone.NextName(g.rng)
		return resolver.Query{
			Time: at, ClientID: client,
			Name: name, Type: qtype,
			Category: cache.CategoryDisposable,
		}
	default:
		zone := nonDisp.pick(g.rng)
		name, qtype := zone.NextName(g.rng)
		return resolver.Query{
			Time: at, ClientID: client,
			Name: name, Type: qtype,
			Category: cache.CategoryOther,
		}
	}
}

// nxName mints a nonexistent name. Most NXDOMAIN traffic in the wild is
// repetitive — misconfigured clients re-asking the same dead names — so 70%
// of draws reuse a bounded junk pool and 30% are fresh typo-like names
// under real zones.
func (g *Generator) nxName() string {
	if len(g.nxPool) > 0 && g.rng.Float64() < 0.7 {
		return g.nxPool[g.rng.Intn(len(g.nxPool))]
	}
	var buf [96]byte
	b := buf[:0]
	if g.rng.Float64() < 0.8 && len(g.registry.NonDisposable) > 0 {
		zone := g.registry.NonDisposable[g.rng.Intn(len(g.registry.NonDisposable))]
		b = labelgen.AppendToken(b, g.rng, 6+g.rng.Intn(8))
		b = append(append(b, '.'), zone.Zone...)
	} else {
		b = labelgen.AppendToken(b, g.rng, 8)
		b = append(append(b, '.'), labelgen.ZoneName(g.rng)...)
		b = append(b, ".com"...)
	}
	name := string(b)
	if len(g.nxPool) < g.nxPoolCap {
		g.nxPool = append(g.nxPool, name)
	} else if g.nxPoolCap > 0 {
		g.nxPool[g.rng.Intn(len(g.nxPool))] = name
	}
	return name
}

// diurnalOffsets draws n times of day, as offsets from midnight, following
// the human diurnal curve the paper shows in Figure 2: a 4-5am trough and an
// evening peak. The returned slice is sorted (generation is sequential in
// time).
func diurnalOffsets(rng *rand.Rand, n int) []time.Duration {
	// Build an hourly intensity table, then sample inside hours.
	weights := make([]float64, 24)
	var total float64
	for h := 0; h < 24; h++ {
		weights[h] = diurnalIntensity(h)
		total += weights[h]
	}
	// Deterministic allocation of events to hours, largest remainder.
	counts := make([]int, 24)
	assigned := 0
	for h := 0; h < 24; h++ {
		counts[h] = int(float64(n) * weights[h] / total)
		assigned += counts[h]
	}
	for h := 0; assigned < n; h = (h + 1) % 24 {
		counts[h]++
		assigned++
	}
	out := make([]time.Duration, 0, n)
	for h := 0; h < 24; h++ {
		base := time.Duration(h) * time.Hour
		step := float64(time.Hour) / float64(counts[h]+1)
		for i := 0; i < counts[h]; i++ {
			jitter := time.Duration(rng.Int63n(int64(step)))
			out = append(out, base+time.Duration(float64(i)*step)+jitter)
		}
	}
	return out
}

// diurnalIntensity returns the relative load at local hour h: an evening
// peak near 20:00 and an early-morning trough — matching the Figure 2 shape
// ("traffic dropped after midnight and rose at 10am").
func diurnalIntensity(h int) float64 {
	v := 1 + 0.55*math.Cos(2*math.Pi*float64(h-20)/24)
	if v < 0.15 {
		v = 0.15
	}
	return v
}

// zonePicker samples zones proportionally to their weights with a Vose
// alias table: O(n) setup, O(1) per draw, one uniform variate per draw.
// This path runs once per generated query, so constant-time sampling
// matters at production volumes.
type zonePicker struct {
	zones []*ZoneSpec
	prob  []float64 // acceptance probability of each column
	alias []int     // fallback zone index of each column
}

func newZonePicker(zones []*ZoneSpec) *zonePicker {
	n := len(zones)
	p := &zonePicker{zones: zones, prob: make([]float64, n), alias: make([]int, n)}
	if n == 0 {
		return p
	}
	var total float64
	for _, z := range zones {
		total += pickerWeight(z)
	}
	// Scale each weight so the average column holds exactly 1: columns
	// below 1 are "small" and get topped up by an overfull "large" column,
	// which records itself as the alias.
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, z := range zones {
		scaled[i] = pickerWeight(z) * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		p.prob[s] = scaled[s]
		p.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers are exactly 1 up to float error; they never alias.
	for _, i := range large {
		p.prob[i] = 1
		p.alias[i] = i
	}
	for _, i := range small {
		p.prob[i] = 1
		p.alias[i] = i
	}
	return p
}

func pickerWeight(z *ZoneSpec) float64 {
	if z.Weight <= 0 {
		return 1e-6
	}
	return z.Weight
}

// pick draws one zone. A single uniform variate supplies both the column
// index (integer part) and the accept/alias coin (fractional part).
func (p *zonePicker) pick(rng *rand.Rand) *ZoneSpec {
	if len(p.zones) == 0 {
		return nil
	}
	u := rng.Float64() * float64(len(p.zones))
	i := int(u)
	if i >= len(p.zones) { // guard the u == n edge of Float64's half-open range
		i = len(p.zones) - 1
	}
	if u-float64(i) < p.prob[i] {
		return p.zones[i]
	}
	return p.zones[p.alias[i]]
}
