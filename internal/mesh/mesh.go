// Package mesh federates the content-addressed result stores of an
// arcsimd fleet into a peer-to-peer cache. The paper's determinism
// guarantee makes this sound: a canonical key (bench.Config.CacheKey)
// names one byte-exact result, so a blob proven on any daemon is valid
// on every daemon, and content addressing makes staleness impossible —
// there is nothing to invalidate, only blobs that exist or don't.
//
// Each daemon serves its store over a small blob API (GET/HEAD
// /v1/store/{key}, see wire.go) and, on a local miss, reads through to
// its healthy peers before paying for a simulation. Fetched blobs are
// verified (checksum, format version, key match) and persisted locally
// so the mesh self-warms. The key space is sharded by rendezvous
// hashing: the owning daemon keeps a key's blob durably, everyone else
// files fetched copies in the store's evictable L2 tier, so a
// million-key store does not fully replicate onto every daemon.
//
// Failure semantics: peers are benched on the same exponential
// cooldown the scheduler uses for job endpoints (backoff.Cooldown); a
// mesh with every peer benched short-circuits to a pure-local miss
// without touching the network, so a dead fleet adds zero latency to
// the hot path. A fetch that fails verification is rejected without
// touching disk — the fallback is always "simulate locally", never
// "trust the bytes".
package mesh

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arcsim/internal/backoff"
	"arcsim/internal/sim"
	"arcsim/internal/store"
)

// maxBlobBytes bounds one peer fetch. Result blobs are a few KB
// compressed; anything near this limit is a misbehaving peer, not a
// result.
const maxBlobBytes = 64 << 20

// Config wires a Mesh.
type Config struct {
	// Self is this daemon's own advertised address (host:port or URL).
	// It is the daemon's rendezvous node id, so every fleet member must
	// refer to this daemon by the same string. Empty means "unplaced":
	// the daemon still fetches from peers but keeps everything durable,
	// since it cannot tell which keys it owns.
	Self string

	// Peers are the other daemons' addresses (host:port or URL).
	Peers []string

	// Store is the local store fetched blobs verify into and Lookup
	// consults for ownership tiering. Required.
	Store *store.Store

	// Timeout bounds each peer HTTP call (default 2s). A hung peer
	// costs at most this before the daemon simulates locally.
	Timeout time.Duration

	// CooldownBase/CooldownMax tune peer benching: first failure sits
	// out CooldownBase (default 1s), doubling per consecutive failure
	// up to CooldownMax (default 30s). Success resets.
	CooldownBase time.Duration
	CooldownMax  time.Duration

	// Logf receives one line per fetch outcome worth an operator's
	// attention (rejects, faults). Default: silent.
	Logf func(string, ...any)
}

// peer is one fleet member plus its health record.
type peer struct {
	base string // normalized base URL, e.g. http://host:9090
	node string // rendezvous node id, e.g. host:9090

	mu   sync.Mutex
	cool backoff.Cooldown
}

func (p *peer) healthy(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cool.Ready(now)
}

func (p *peer) markUp() {
	p.mu.Lock()
	p.cool.Reset()
	p.mu.Unlock()
}

func (p *peer) markDown(now time.Time, base, max time.Duration) {
	p.mu.Lock()
	p.cool.Fail(now, base, max)
	p.mu.Unlock()
}

func (p *peer) snapshot(now time.Time) PeerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PeerStatus{Addr: p.base, Node: p.node, Healthy: p.cool.Ready(now), Fails: p.cool.Fails}
	if !st.Healthy {
		st.CooldownLeft = p.cool.Until.Sub(now).Round(time.Millisecond).String()
	}
	return st
}

// PeerStatus is one peer's health as reported by Status, /v1/mesh, and
// arcsimctl mesh.
type PeerStatus struct {
	Addr         string `json:"addr"`
	Node         string `json:"node"`
	Healthy      bool   `json:"healthy"`
	Fails        int    `json:"fails,omitempty"`
	CooldownLeft string `json:"cooldown_left,omitempty"`
}

// Counters is a snapshot of the mesh's cumulative fetch outcomes
// (exported as arcsimd_mesh_* on /metrics).
type Counters struct {
	Fetches   uint64 `json:"fetches"`   // blobs fetched, verified, persisted
	Bytes     uint64 `json:"bytes"`     // stored bytes streamed in
	Negatives uint64 `json:"negatives"` // peer 404s (key nowhere in the mesh yet)
	Rejects   uint64 `json:"rejects"`   // blobs refused: checksum, version, envelope
	Faults    uint64 `json:"faults"`    // transport errors and deadlines
	Probes    uint64 `json:"probes"`    // liveness probes sent
}

// Mesh is one daemon's view of the fleet's federated store. Safe for
// concurrent use; the peer set is fixed at construction.
type Mesh struct {
	self  string // own node id ("" = unplaced)
	peers []*peer
	st    *store.Store
	hc    *http.Client
	cfg   Config
	logf  func(string, ...any)
	now   func() time.Time

	fetches    atomic.Uint64
	fetchBytes atomic.Uint64
	negatives  atomic.Uint64
	rejects    atomic.Uint64
	faults     atomic.Uint64
	probes     atomic.Uint64
}

// New builds a Mesh over the configured peer set. Addresses are
// normalized (scheme optional, trailing slash dropped); the daemon's
// own address is excluded from the peer list if present.
func New(cfg Config) *Mesh {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.CooldownBase <= 0 {
		cfg.CooldownBase = time.Second
	}
	if cfg.CooldownMax <= 0 {
		cfg.CooldownMax = 30 * time.Second
	}
	m := &Mesh{
		self: nodeID(cfg.Self),
		st:   cfg.Store,
		hc:   &http.Client{Timeout: cfg.Timeout},
		cfg:  cfg,
		logf: cfg.Logf,
		now:  time.Now,
	}
	if m.logf == nil {
		m.logf = func(string, ...any) {}
	}
	for _, raw := range cfg.Peers {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		n := nodeID(raw)
		if n == m.self {
			continue // peering with yourself is a no-op, not an error
		}
		m.peers = append(m.peers, &peer{base: baseURL(raw), node: n})
	}
	return m
}

// nodeID normalizes an address to its rendezvous identity: host:port,
// no scheme, no trailing slash.
func nodeID(addr string) string {
	addr = strings.TrimSpace(addr)
	addr = strings.TrimPrefix(addr, "http://")
	addr = strings.TrimPrefix(addr, "https://")
	return strings.TrimSuffix(addr, "/")
}

// baseURL normalizes an address to a fetchable base URL.
func baseURL(addr string) string {
	n := nodeID(addr)
	if strings.HasPrefix(strings.TrimSpace(addr), "https://") {
		return "https://" + n
	}
	return "http://" + n
}

// Peers returns how many peers are configured.
func (m *Mesh) Peers() int { return len(m.peers) }

// Healthy returns how many peers are currently in rotation.
func (m *Mesh) Healthy() int {
	now, n := m.now(), 0
	for _, p := range m.peers {
		if p.healthy(now) {
			n++
		}
	}
	return n
}

// Status snapshots every peer's health, sorted by address.
func (m *Mesh) Status() []PeerStatus {
	now := m.now()
	out := make([]PeerStatus, 0, len(m.peers))
	for _, p := range m.peers {
		out = append(out, p.snapshot(now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Self returns this daemon's rendezvous node id ("" if unplaced).
func (m *Mesh) Self() string { return m.self }

// Counters snapshots the cumulative fetch outcome counters.
func (m *Mesh) Counters() Counters {
	return Counters{
		Fetches:   m.fetches.Load(),
		Bytes:     m.fetchBytes.Load(),
		Negatives: m.negatives.Load(),
		Rejects:   m.rejects.Load(),
		Faults:    m.faults.Load(),
		Probes:    m.probes.Load(),
	}
}

// Owner returns the rendezvous owner's node id for key, considering
// self and every configured peer. With no nodes at all it returns "".
func (m *Mesh) Owner(key string) string {
	best, bestScore, any := "", uint64(0), false
	consider := func(node string) {
		if node == "" {
			return
		}
		if s := score(key, node); !any || s > bestScore || (s == bestScore && node < best) {
			best, bestScore, any = node, s, true
		}
	}
	consider(m.self)
	for _, p := range m.peers {
		consider(p.node)
	}
	return best
}

// Owns reports whether this daemon durably owns key. Unplaced daemons
// (no Self) own everything they hold: without a place in the ring they
// cannot assume some peer keeps the durable copy.
func (m *Mesh) Owns(key string) bool {
	if m.self == "" {
		return true
	}
	return m.Owner(key) == m.self
}

// Lookup is the read-through path: called on a local store miss, it
// asks healthy peers for the blob — owner first, then the rest in
// rendezvous order — and verifies + persists the first good answer.
// Every failure mode degrades to (nil, false): the caller simulates
// locally, which is always correct, just slower. When no peer is
// healthy it returns immediately without network I/O.
func (m *Mesh) Lookup(key string) (*sim.Result, bool) {
	now := m.now()
	var cands []*peer
	for _, p := range m.peers {
		if p.healthy(now) {
			cands = append(cands, p)
		}
	}
	if len(cands) == 0 {
		return nil, false
	}
	sort.Slice(cands, func(i, j int) bool {
		si, sj := score(key, cands[i].node), score(key, cands[j].node)
		if si != sj {
			return si > sj
		}
		return cands[i].node < cands[j].node
	})
	for _, p := range cands {
		res, ok := m.fetchFrom(p, key)
		if ok {
			return res, true
		}
	}
	return nil, false
}

// fetchFrom attempts one peer. It reports ok only for a verified,
// persisted blob; every other outcome bumps the matching counter and
// returns false so Lookup moves on.
func (m *Mesh) fetchFrom(p *peer, key string) (*sim.Result, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, BlobURL(p.base, key), nil)
	if err != nil {
		m.faults.Add(1)
		return nil, false
	}
	resp, err := m.hc.Do(req)
	if err != nil {
		// Transport error or deadline: the peer is unreachable or hung.
		// Bench it so the next miss doesn't pay the same timeout.
		m.faults.Add(1)
		p.markDown(m.now(), m.cfg.CooldownBase, m.cfg.CooldownMax)
		m.logf("mesh: peer %s fault for %s: %v", p.node, key, err)
		return nil, false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to verification
	case http.StatusNotFound:
		// A live peer that simply doesn't have the key. Healthy answer.
		m.negatives.Add(1)
		p.markUp()
		return nil, false
	default:
		m.faults.Add(1)
		p.markDown(m.now(), m.cfg.CooldownBase, m.cfg.CooldownMax)
		m.logf("mesh: peer %s returned %d for %s", p.node, resp.StatusCode, key)
		return nil, false
	}
	// Version gate before reading the body: a peer running a newer store
	// format is explicitly not trusted to be decodable.
	if raw := resp.Header.Get(HeaderStoreVersion); raw != "" {
		if v, err := strconv.Atoi(raw); err != nil || v > store.FormatVersion {
			m.rejects.Add(1)
			p.markUp() // the peer is healthy, just newer than us
			m.logf("mesh: peer %s serves %s under store version %s, newer than %d; rejected", p.node, key, raw, store.FormatVersion)
			return nil, false
		}
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes+1))
	if err != nil {
		m.faults.Add(1)
		p.markDown(m.now(), m.cfg.CooldownBase, m.cfg.CooldownMax)
		m.logf("mesh: peer %s stream for %s: %v", p.node, key, err)
		return nil, false
	}
	if len(blob) > maxBlobBytes {
		m.rejects.Add(1)
		p.markDown(m.now(), m.cfg.CooldownBase, m.cfg.CooldownMax)
		m.logf("mesh: peer %s blob for %s exceeds %d bytes; rejected", p.node, key, maxBlobBytes)
		return nil, false
	}
	if want := resp.Header.Get(HeaderSHA256); want != "" && want != store.HexSHA256(blob) {
		// The bytes do not match what the peer claims they are: checksum
		// reject, nothing persisted.
		m.rejects.Add(1)
		p.markUp()
		m.logf("mesh: peer %s blob for %s failed checksum; rejected", p.node, key)
		return nil, false
	}
	// PutFetched is the single verification + persistence point: it
	// decodes per the declared encoding, checks envelope version and key,
	// and only then writes — garbage never touches disk.
	res, err := m.st.PutFetched(key, blob, resp.Header.Get(HeaderEncoding), m.Owns(key))
	if err != nil {
		m.rejects.Add(1)
		p.markUp()
		m.logf("mesh: %v", err)
		return nil, false
	}
	m.fetches.Add(1)
	m.fetchBytes.Add(uint64(len(blob)))
	p.markUp()
	return res, true
}

// Probe checks every currently-benched-or-not peer's /healthz once. A
// reachable peer is marked up immediately (ending any cooldown), an
// unreachable one benched — so a fleet that comes back is noticed
// within one probe interval instead of after the next miss.
func (m *Mesh) Probe(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range m.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			m.probes.Add(1)
			pctx, cancel := context.WithTimeout(ctx, m.cfg.Timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, p.base+"/healthz", nil)
			if err != nil {
				return
			}
			resp, err := m.hc.Do(req)
			if err != nil {
				p.markDown(m.now(), m.cfg.CooldownBase, m.cfg.CooldownMax)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.markUp()
			} else {
				p.markDown(m.now(), m.cfg.CooldownBase, m.cfg.CooldownMax)
			}
		}(p)
	}
	wg.Wait()
}

// ProbeLoop probes immediately and then every interval until ctx ends.
// Run it in its own goroutine.
func (m *Mesh) ProbeLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 15 * time.Second
	}
	m.Probe(ctx)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.Probe(ctx)
		}
	}
}

// Cache layers the mesh behind the local store as the runner's
// bench.Cache: local hit, else peer read-through, else miss (the
// runner simulates). Puts always land in the local durable tier — a
// result this daemon paid to prove is never evictable.
type Cache struct {
	m *Mesh
}

// NewCache wraps m as a bench.Cache.
func NewCache(m *Mesh) *Cache { return &Cache{m: m} }

// Get consults the local store, then the mesh.
func (c *Cache) Get(key string) (*sim.Result, bool) {
	if res, ok := c.m.st.Get(key); ok {
		return res, true
	}
	return c.m.Lookup(key)
}

// Put persists a locally proven result durably.
func (c *Cache) Put(key string, res *sim.Result) error {
	return c.m.st.Put(key, res)
}

var _ fmt.Stringer = PeerStatus{}

func (s PeerStatus) String() string {
	state := "up"
	if !s.Healthy {
		state = "down (" + s.CooldownLeft + ")"
	}
	return fmt.Sprintf("%s %s fails=%d", s.Addr, state, s.Fails)
}
