GO ?= go

.PHONY: all build test race vet lint loc bench bench-smoke fuzz-smoke clean

all: build test vet lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full test suite under the race detector; the parallel resolver and
# experiment tests drive worker/tap/accumulator interleavings on purpose.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi

# The yardstick every Subtract PR reports against: non-test Go lines outside
# the benchmark harness.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

# The repository benchmark in A/A mode: every BENCHMARK.json workload run as
# two sets on the same code, medians compared against the metrics' bounds.
bench:
	bash benchmark/run.sh

# Fast hot-path health check, cheap enough for CI: the resolver and cache
# micro-benchmarks at -benchtime=100x (smoke, not measurement) plus the
# allocation guards — testing.AllocsPerRun asserting 0 allocs/op on the
# cache-hit resolve path, the bytes probe of a 60-byte wire question
# (cache.GetName, and the resolver's hit body behind it: TestGetNameZeroAlloc,
# TestWireProbeZeroAlloc), LRU Get/Put refresh, Normalize fast paths, the
# UDP serve packet path, live scoring, the resolve path with a tsdb sweeper
# attached, and authority.AppendHandleWire answering a static, CNAME,
# wildcard, synthesized or NXDOMAIN query into reused scratch, a registry
# host's A, AAAA, CNAME or NODATA answer (TestHostSynthZeroAlloc), and the
# small fixed budgets of the miss path (a cold single-A or NXDOMAIN resolve 0, a
# 3-address one its one kept []RR, dnsmsg Unpack/AppendEncode into reused
# scratch) — the miner (BenchmarkRescore over an unchanged 5 k-name
# tree and BenchmarkRescoreTouched over a window that touched three zones of
# it, the batch BenchmarkMine, the tree's GroupsUnder/ChildZones and Insert,
# the guard that an untouched re-score allocates for what it reports, not per
# name or per finding, nor for a window of bare names the tree holds, and
# TestTreeInsertZeroAlloc: a re-stamp, by string or by bytes, allocates
# nothing, a new node its share of a slab chunk) — the serve path's name
# intake (BenchmarkObserveName: a name the window holds and a name new to a
# window whose buffers an earlier one grew, both reading 0 allocs/op; the
# guard is TestScoreWireFreshNamesZeroAlloc on the 'ZeroAlloc' line: a
# recycled window of fresh names, a random-subdomain flood, costs the
# listener no allocation) — the source side of a
# replay (BenchmarkReaderNext and BenchmarkDayStream
# with the guards that a canonical trace line costs at most one allocation
# and none when its name repeats, a generated name at most one, a generated
# day's clock 8 bytes an event, TestDayStreamAllocs, and a replay's burnt
# day nothing beyond StartDay's, TestBurnDayAllocs; and
# BenchmarkTraceSource, the decode and the
# batch handoff per query at one processor and at two) — the CHR collector
# (BenchmarkObserveBelow and BenchmarkObserveMiss, a miss's above-then-below
# pair, each known/fresh,
# BenchmarkMerge and BenchmarkMergeTouched, the merge a window pays, with the
# guards that a known record costs nothing, a new or merged one its share of
# a slab chunk and of the name index's growth, not objects of its own, a
# record only a later shard holds no RRStat or entry bytes (Merge relinks it
# into shard 0 in place, which adopts the shard's entry chunks,
# TestMergeAllocs), a further record of
# a known name the slab share alone, a client past a record's fourth a block
# chunk's share, and a counts view's new name or grown group a run of its
# pointer chunk, not a slice) — the rpDNS store (BenchmarkInsert, a fresh and
# a duplicate record, with the guards that a duplicate insert costs nothing
# and a new record its stripe's slab share) — and the loopback socket flood that holds
# the serve path, plain and scored, answering from a real authority, and
# recursive, answering cache hits from a resolver shard, to zero
# process-wide allocations per packet (TestServeFloodZeroAlloc*, on the
# 'ZeroAlloc' line with the authority guard, so an allocation coming back
# to either fails the job) — and the heap guards: a slab chunk of elements
# with pointers fits its 8 KiB size class (TestChunkFitsSizeClass), a
# cache's heap follows its live entries, not its capacity, and churn
# never grows its index (TestIndexFlatUnderChurn), the benchmark-size namespace's authority,
# which computes its answers, holds at most 3 MiB (TestAuthorityHeap), and
# an rpDNS record holds at most 72 bytes of live heap, its 56 and its share
# of its stripe's index (TestStoreHeap).
# Whole-program overhead questions (telemetry, qlog, fleet collector, tsdb) go to
# benchmark/run.sh A/A runs and -compare instead.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkResolveCacheHit|BenchmarkResolveCacheMiss|BenchmarkPutGet|BenchmarkEvictionChurn|BenchmarkAppendHandleWire|BenchmarkUnpack' \
		-benchtime=100x -benchmem ./internal/resolver/ ./internal/cache/ ./internal/authority/ ./internal/dnsmsg/
	$(GO) test -run '^$$' -bench 'BenchmarkRescore|BenchmarkMine|BenchmarkObserveName|BenchmarkGroupsUnder|BenchmarkChildZones|BenchmarkInsert' \
		-benchtime=100x -benchmem ./internal/core/ ./internal/dntree/
	$(GO) test -run 'TestRescoreSteadyStateAllocs' -v ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkReaderNext|BenchmarkDayStream' \
		-benchtime=100x -benchmem ./internal/traceio/ ./internal/workload/
	$(GO) test -run 'TestReaderNextAllocs|TestNextNameAllocs|TestDayStreamAllocs|TestBurnDayAllocs' -v ./internal/traceio/ ./internal/workload/
	$(GO) test -run '^$$' -bench 'BenchmarkTraceSource' -benchtime=100x -benchmem -cpu 1,2 ./internal/ingest/
	$(GO) test -run '^$$' -bench 'BenchmarkObserveBelow|BenchmarkObserveMiss|BenchmarkMerge|BenchmarkInsert' -benchtime=100x -benchmem ./internal/chrstat/ ./internal/pdns/
	$(GO) test -run 'TestObserveAllocs|TestMergeAllocs|TestRefreshAllocs|TestInsertAllocs' -v ./internal/chrstat/ ./internal/pdns/
	$(GO) test -run 'TestChunkFitsSizeClass|TestIndexFlatUnderChurn|TestAuthorityHeap|TestStoreHeap' -v ./internal/slab/ ./internal/cache/ ./internal/workload/ ./internal/pdns/
	$(GO) test -run 'ZeroAlloc' -v ./internal/resolver/ ./internal/cache/ ./internal/dnsname/ ./internal/udptransport/ ./internal/livescore/ ./internal/telemetry/tsdb/ ./internal/authority/ ./internal/dnsmsg/ ./internal/dntree/ ./internal/workload/

# Ten seconds of native fuzzing on each decoder that reads outside input,
# from the committed seeds. The wire decoder (the golden corpus plus
# hand-built hostile wires): no panic, reuse equals fresh decode, the asked
# name changes nothing, re-encode is a fixed point, the wire scanners agree,
# a question name re-encodes to the query's labels. The live scorer against
# the one question reader: no verdict exactly when the reader rejects or
# reads the root, else the reader's name staged. The front door (a listener
# worker's packet path answering from an authority): every reply is a
# FORMERR or carries the query's ID and question, up to ASCII case. The trace reader (the golden and foreign traces plus
# hostile lines): its canonical-line path decodes what encoding/json decodes
# and fails where it fails. The exposition parser that telemetry's tests hold
# WritePrometheus to (a rendered registry, whole and cut): no
# panic, and a sample that parses survives being spelled out again. The
# zone-file reader (the zone files of its tests, good and bad): no panic,
# every record of an accepted zone is served over the wire, and write →
# parse → write is a fixed point. The TCP lane's framing (runt, cut,
# oversize and garbage frames over a pipe): no panic, every reply is a
# framed response to the frame in its place, and a bad frame ends the
# connection.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzUnpack -fuzztime 10s ./internal/dnsmsg
	$(GO) test -run '^$$' -fuzz FuzzQuestionReaders -fuzztime 10s ./internal/livescore
	$(GO) test -run '^$$' -fuzz FuzzReaderLine -fuzztime 10s ./internal/traceio
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/telemetry
	$(GO) test -run '^$$' -fuzz FuzzParseZoneFile -fuzztime 10s ./internal/authority
	$(GO) test -run '^$$' -fuzz FuzzTCPFrames -fuzztime 10s ./internal/udptransport
	$(GO) test -run '^$$' -fuzz FuzzFrontDoor -fuzztime 10s ./internal/udptransport

clean:
	$(GO) clean ./...
