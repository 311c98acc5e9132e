package sim

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"dnsnoise/internal/ingest"
	"dnsnoise/internal/workload"
)

// Source is the query-stream flag group: -trace replays recorded traces,
// -live generates the stream in-process, and -profile/-days name the
// calibration days either way. Both paths drive the same ingest pipeline,
// so mining a trace of a generation run reproduces the live run itself.
type Source struct {
	Trace   string
	Live    bool
	Profile string
	Days    int
}

// RegisterProfileFlags adds -profile and -days — all of the group a pure
// generator (dnsnoise-gen) needs.
func (s *Source) RegisterProfileFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Profile, "profile", "december", "calibration profile: february, december, or dates (the six paper dates); a replay must name its recording's")
	fs.IntVar(&s.Days, "days", 1, "consecutive days to generate (ignored for -profile dates)")
}

// RegisterFlags adds -trace and -live plus the profile flags.
func (s *Source) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Trace, "trace", "", "input trace(s), comma-separated (JSONL from dnsnoise-gen, gzip sniffed; '-' for stdin)")
	fs.BoolVar(&s.Live, "live", false, "generate the query stream in-process instead of replaying a trace")
	s.RegisterProfileFlags(fs)
}

// Paths returns the -trace files.
func (s *Source) Paths() []string { return strings.Split(s.Trace, ",") }

// Profiles returns the days -profile and -days select for generation.
func (s *Source) Profiles() ([]workload.Profile, error) {
	return workload.SelectProfiles(s.Profile, s.Days)
}

// Validate reports -trace with -live, or neither, from the parsed flags
// alone, so a CLI can refuse before it builds a world or opens a telemetry
// socket. Open runs it too.
func (s *Source) Validate() error {
	switch {
	case s.Trace != "" && s.Live:
		return errors.New("-trace and -live are mutually exclusive")
	case s.Trace == "" && !s.Live:
		return errors.New("missing -trace (generate one with dnsnoise-gen, or pass -live to generate in-process)")
	}
	return nil
}

// Open returns the stream over env's world, and the day-start hook the
// run must install (ingest.OnDayStart, or fleet.Run's replayDay). A live
// stream draws from env's generator and needs no hook (nil). A replay
// burns each recorded day on env's generator instead (ingest.ReplayProfiles:
// the same draws, no names minted), so the registry walks the recording's
// per-day TTL states; env must be freshly built from the recording's flags,
// and its generator is spent for live use.
func (s *Source) Open(env *Env) (ingest.QuerySource, func(time.Time) error, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	if s.Live {
		profiles, err := s.Profiles()
		if err != nil {
			return nil, nil, err
		}
		return ingest.NewGeneratorSource(env.Generator, profiles...), nil, nil
	}
	profileFor, err := workload.ProfileResolver(s.Profile)
	if err != nil {
		return nil, nil, err
	}
	return ingest.NewTraceSource(s.Paths()...), ingest.ReplayProfiles(env.Generator, profileFor), nil
}

// Run opens the stream, resolves it through env's cluster as one window
// (Env.RunWindow) and closes it. A stream without queries is an error.
func (s *Source) Run(env *Env, opts ...ingest.Option) (ingest.Window, error) {
	src, dayStart, err := s.Open(env)
	if err != nil {
		return ingest.Window{}, err
	}
	defer src.Close()
	w, err := env.RunWindow(src, append(opts, ingest.OnDayStart(dayStart))...)
	if err != nil {
		return w, fmt.Errorf("replay: %w", err)
	}
	if w.Queries == 0 {
		return w, errors.New("trace is empty")
	}
	return w, nil
}
