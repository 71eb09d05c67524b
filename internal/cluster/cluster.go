package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// HopHeader carries the forward count of a proxied request. A replica
// receiving a request whose hop count has reached MaxHops serves it
// locally no matter who owns the key, so routing terminates even when
// replicas momentarily disagree about membership.
const HopHeader = "X-Timely-Hop"

// ServedByHeader names the replica that actually computed (or cached)
// the response; proxied responses carry the owner's value through.
const ServedByHeader = "X-Timely-Served-By"

// MaxHops bounds forwarding to a single hop: entry replica → owner.
// One hop is all a consistent ring ever needs, and the bound — enforced
// at the receiver, not just the sender — is the no-routing-loop proof.
const MaxHops = 1

// Config describes one replica's view of the fleet.
type Config struct {
	// Self is this replica's address exactly as it appears in Peers.
	Self string
	// Peers is every replica's address (host:port), Self included.
	// All replicas must be configured with the same set — ownership
	// agreement is by exact string match.
	Peers []string
	// VNodes is the virtual-node count per peer (default DefaultVNodes).
	VNodes int
	// FailureThreshold trips a peer's breaker after this many
	// consecutive failures (default 3).
	FailureThreshold int
	// Cooldown is how long an open breaker refuses traffic before
	// allowing a half-open trial (default 5s).
	Cooldown time.Duration
	// ProbeInterval spaces the background /readyz probes per peer
	// (default 1s; negative disables probing even if Start is called).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe exchange (default 1s).
	ProbeTimeout time.Duration
	// Client issues forwarded requests; nil gets a default with a 35s
	// timeout (evaluate deadline class plus headroom).
	Client *http.Client
	// Logger receives probe-transition and forward-failure lines; nil
	// means silent.
	Logger *log.Logger
	// Now is the breaker clock (tests); nil means time.Now.
	Now func() time.Time
}

// Cluster is one replica's routing state: the shared ring, a breaker
// per peer, and the forwarding counters /metricz exposes. All methods
// are safe for concurrent use.
type Cluster struct {
	self          string
	ring          *Ring
	peerAddrs     []string // sorted, excludes self
	breakers      map[string]*Breaker
	client        *http.Client
	probeInterval time.Duration
	probeTimeout  time.Duration
	logger        *log.Logger

	forwarded     atomic.Int64 // requests proxied to their owner
	forwardErrors atomic.Int64 // transport-level forward failures
	failoverLocal atomic.Int64 // owned-elsewhere requests computed locally

	stop context.CancelFunc
	done chan struct{}
}

// New validates the configuration and builds the replica's cluster
// state. Self must appear verbatim in Peers: a replica that spells its
// own address differently from how its peers spell it would disagree
// with them about ownership of its own keyspace.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: Self address is required")
	}
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	selfListed := false
	for _, p := range ring.Nodes() {
		if p == cfg.Self {
			selfListed = true
			break
		}
	}
	if !selfListed {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v (addresses must match exactly)",
			cfg.Self, ring.Nodes())
	}
	if cfg.FailureThreshold == 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 35 * time.Second}
	}
	c := &Cluster{
		self:          cfg.Self,
		ring:          ring,
		breakers:      make(map[string]*Breaker),
		client:        cfg.Client,
		probeInterval: cfg.ProbeInterval,
		probeTimeout:  cfg.ProbeTimeout,
		logger:        cfg.Logger,
	}
	for _, p := range ring.Nodes() {
		if p == cfg.Self {
			continue
		}
		c.peerAddrs = append(c.peerAddrs, p)
		c.breakers[p] = NewBreaker(cfg.FailureThreshold, cfg.Cooldown, cfg.Now)
	}
	sort.Strings(c.peerAddrs)
	return c, nil
}

// Self returns this replica's address.
func (c *Cluster) Self() string { return c.self }

// Peers returns the other replicas' addresses, sorted.
func (c *Cluster) Peers() []string {
	out := make([]string, len(c.peerAddrs))
	copy(out, c.peerAddrs)
	return out
}

// Owner returns the replica owning key on the shared ring.
func (c *Cluster) Owner(key string) string { return c.ring.Owner(key) }

// Hops parses the request's forwarded-hop count (0 when absent or
// malformed — an unparseable header is treated as a fresh request, the
// availability-preserving reading).
func Hops(r *http.Request) int {
	h := r.Header.Get(HopHeader)
	if h == "" {
		return 0
	}
	n, err := strconv.Atoi(h)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// Route decides where the request for key runs. It returns the owning
// replica and whether the caller should forward there: false means
// compute locally — because this replica IS the owner, because the hop
// budget is spent (loop bound), or because the owner's breaker refuses
// (failover, counted in failover_local). A true return may hold the
// owner's half-open trial slot, so the caller MUST follow with Forward.
func (c *Cluster) Route(key string, hops int) (owner string, forward bool) {
	owner = c.ring.Owner(key)
	if owner == c.self {
		return owner, false
	}
	if hops >= MaxHops {
		return owner, false
	}
	if !c.breakers[owner].Allow() {
		c.failoverLocal.Add(1)
		return owner, false
	}
	return owner, true
}

// MaxKeptBody caps the owner's 200 body that Forward buffers and returns
// to its caller for replay. Evaluate answers are a few KiB; a larger body
// streams through unbuffered and is not returned.
const MaxKeptBody = 256 << 10

// Forward proxies the request — its exact raw body — to the owner and
// streams the response back verbatim: status, headers (shed responses
// keep their Retry-After, cache hits their Cache-Status) and body. Any
// response from a live owner passes through, 5xx included; only a
// transport-level failure (dial, timeout) returns an error, after
// recording the breaker failure and counting forward_errors and
// failover_local — the caller then computes locally. A nil error means
// the response has been written. For a 200 whose body fits MaxKeptBody
// and was read in full, Forward also returns those bytes, so the caller
// may keep the owner's answer; every other response returns a nil body.
func (c *Cluster) Forward(w http.ResponseWriter, r *http.Request, owner string, body []byte) ([]byte, error) {
	breaker := c.breakers[owner]
	url := "http://" + owner + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		breaker.Cancel()
		c.forwardErrors.Add(1)
		c.failoverLocal.Add(1)
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set(HopHeader, strconv.Itoa(Hops(r)+1))
	resp, err := c.client.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			// The CLIENT vanished mid-forward; the peer proved nothing.
			breaker.Cancel()
			return nil, err
		}
		breaker.Failure()
		c.forwardErrors.Add(1)
		c.failoverLocal.Add(1)
		if c.logger != nil {
			c.logger.Printf("cluster: forward to %s failed, computing locally: %v", owner, err)
		}
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		// The owner answered but is sick; the response still passes
		// through (it is an application answer, not a routing failure).
		breaker.Failure()
	} else {
		breaker.Success()
	}
	h := w.Header()
	for k, vv := range resp.Header {
		switch k {
		case "Connection", "Transfer-Encoding", "Keep-Alive":
			continue
		}
		for _, v := range vv {
			h.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	var kept []byte
	if resp.StatusCode == http.StatusOK {
		// Buffer up to the cap; a body that read to EOF within it is
		// complete and is returned even if the client write fails.
		buf, rerr := io.ReadAll(io.LimitReader(resp.Body, MaxKeptBody+1))
		if rerr == nil && len(buf) <= MaxKeptBody {
			kept = buf
		}
		_, err = w.Write(buf)
		if err == nil {
			err = rerr
		}
	}
	if err == nil {
		// The rest of an over-cap 200, or all of any other status.
		_, err = io.Copy(w, resp.Body)
	}
	if err != nil && c.logger != nil {
		// Headers are committed; logging is the only honest response.
		c.logger.Printf("cluster: streaming response from %s: %v", owner, err)
	}
	c.forwarded.Add(1)
	return kept, nil
}

// Start launches one background /readyz prober per peer, feeding the
// breakers until ctx is cancelled. Probing is what re-closes an open
// breaker while no traffic flows toward the peer (and what opens it
// before traffic has to discover the corpse). A non-positive interval
// disables probing. Start is idempotent per Cluster only in the sense
// that calling it once is the intended use; call Close to stop early.
func (c *Cluster) Start(ctx context.Context) {
	if c.probeInterval <= 0 || len(c.peerAddrs) == 0 {
		return
	}
	pctx, cancel := context.WithCancel(ctx)
	c.stop = cancel
	done := make(chan struct{})
	c.done = done
	var running atomic.Int64
	running.Store(int64(len(c.peerAddrs)))
	for _, peer := range c.peerAddrs {
		go func(peer string) {
			defer func() {
				if running.Add(-1) == 0 {
					close(done)
				}
			}()
			t := time.NewTicker(c.probeInterval)
			defer t.Stop()
			for {
				select {
				case <-pctx.Done():
					return
				case <-t.C:
					c.probeOnce(pctx, peer)
				}
			}
		}(peer)
	}
}

// Close stops the probers started by Start and waits for them to exit.
func (c *Cluster) Close() {
	if c.stop != nil {
		c.stop()
		<-c.done
	}
}

// probeOnce issues one /readyz exchange against peer and feeds the
// verdict to its breaker: only a 200 within the probe timeout counts as
// healthy — a draining or overloaded peer (503) should not receive
// forwarded traffic either.
func (c *Cluster) probeOnce(ctx context.Context, peer string) {
	b := c.breakers[peer]
	before := b.State()
	pctx, cancel := context.WithTimeout(ctx, c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, "http://"+peer+"/readyz", nil)
	if err != nil {
		b.RecordProbe(false)
		return
	}
	resp, err := c.client.Do(req)
	ok := false
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ok = resp.StatusCode == http.StatusOK
	}
	b.RecordProbe(ok)
	if after := b.State(); after != before && c.logger != nil {
		c.logger.Printf("cluster: peer %s breaker %s -> %s (probe ok=%t)", peer, before, after, ok)
	}
}

// Snapshot merges the cluster counters into a /metricz map: the three
// forwarding totals plus one breaker-state gauge (0 closed, 1 half-open,
// 2 open) and one cumulative trip counter per peer. Peer keys embed the
// address; map ordering is the encoder's (sorted), so the snapshot is
// stable-ordered like the rest of /metricz.
func (c *Cluster) Snapshot(snap map[string]int64) {
	snap["forwarded"] = c.forwarded.Load()
	snap["forward_errors"] = c.forwardErrors.Load()
	snap["failover_local"] = c.failoverLocal.Load()
	for _, p := range c.peerAddrs {
		b := c.breakers[p]
		snap["peer_breaker_state:"+p] = int64(b.State())
		snap["peer_breaker_opens:"+p] = b.Opens()
	}
}

// BreakerState returns the breaker position for peer (tests, logs).
// The zero State (closed) is returned for unknown peers.
func (c *Cluster) BreakerState(peer string) State {
	b, ok := c.breakers[peer]
	if !ok {
		return StateClosed
	}
	return b.State()
}

// Counters returns the forwarding totals (tests).
func (c *Cluster) Counters() (forwarded, forwardErrors, failoverLocal int64) {
	return c.forwarded.Load(), c.forwardErrors.Load(), c.failoverLocal.Load()
}
