// Elastic membership: owners can join, leave, or crash while clients keep
// loading. A membership transition plans the minimal chunk moves, the
// gaining resident owners pull the moved chunks over the existing batched
// fetch path while the old owners keep serving, and the next generation is
// published gainers-first so every sample stays addressable throughout —
// a client that lands on the wrong owner gets a stale-generation answer
// carrying the new map and retries, never a hard error.
package serveboot

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"ddstore/internal/shardmap"
	"ddstore/internal/transport"
)

// migrateBatch is how many samples one migration pull requests at a time
// — the same batched GetBatchRaw framing clients use.
const migrateBatch = 256

// AddOwner joins a new owner: it boots empty under the current
// generation, the planner moves the minimum shards onto it, migration
// fills it while the old owners keep serving, and the next generation
// cuts over. Returns the new owner's ID.
func (c *Cluster) AddOwner() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", fmt.Errorf("serveboot: cluster is closed")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("serveboot: listen: %w", err)
	}
	id := c.newOwnerID()
	members := append(append([]shardmap.Member(nil), c.cur.Members...),
		shardmap.Member{ID: id, Addr: ln.Addr().String()})
	next, moves, err := shardmap.Planner{Width: c.cfg.Width}.Next(c.cur, members)
	if err != nil {
		ln.Close()
		return "", err
	}
	o, err := c.startOwner(ln, id, c.cur) // owns nothing yet; migration fills it
	if err != nil {
		return "", err
	}
	c.owners = append(c.owners, o)
	if err := c.migrateAndPublish(next, moves); err != nil {
		return "", err
	}
	return id, nil
}

// RemoveOwner drains an owner out of the cluster gracefully: its shards
// migrate to the survivors (pulled from it while it still serves), the
// next generation excludes it, and only then does it drain and shut down.
func (c *Cluster) RemoveOwner(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaveLocked(id, false)
}

// CrashOwner kills an owner abruptly (no drain, no handoff) and then
// heals the cluster: the planner promotes surviving replicas where it
// can, and orphaned shards are re-read from the durable source. Clients
// that were talking to the dead owner fail over / refresh and retry.
func (c *Cluster) CrashOwner(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leaveLocked(id, true)
}

// leaveLocked plans owner id out of the membership and publishes the
// generation without it. Callers hold c.mu.
func (c *Cluster) leaveLocked(id string, crash bool) error {
	if c.closed {
		return fmt.Errorf("serveboot: cluster is closed")
	}
	o := c.ownerLocked(id)
	if o == nil {
		return fmt.Errorf("serveboot: unknown owner %q", id)
	}
	if len(c.owners) == 1 {
		return fmt.Errorf("serveboot: cannot remove the last owner")
	}
	if crash {
		o.crashed.Store(true)
		o.srv.Close() // abrupt: in-flight connections die mid-request
		if o.fe != nil {
			o.fe.Close()
		}
	}
	members := make([]shardmap.Member, 0, len(c.cur.Members)-1)
	for _, m := range c.cur.Members {
		if m.ID != id {
			members = append(members, m)
		}
	}
	next, moves, err := shardmap.Planner{Width: c.cfg.Width}.Next(c.cur, members)
	if err != nil {
		return err
	}
	if err := c.migrateAndPublish(next, moves); err != nil {
		return err
	}
	for i, oo := range c.owners {
		if oo == o {
			c.owners = append(c.owners[:i], c.owners[i+1:]...)
			break
		}
	}
	if cl := c.pulls[o.addr]; cl != nil {
		cl.Close()
		delete(c.pulls, o.addr)
	}
	if !crash {
		c.shutdown([]*Owner{o})
	}
	return nil
}

// Reshard grows or shrinks the cluster to n owners, one membership
// transition at a time (shrinking removes the newest owners first).
func (c *Cluster) Reshard(n int) error {
	if n < 1 {
		return fmt.Errorf("serveboot: cannot reshard to %d owners", n)
	}
	for c.OwnerCount() < n {
		if _, err := c.AddOwner(); err != nil {
			return err
		}
	}
	for c.OwnerCount() > n {
		c.mu.Lock()
		err := c.leaveLocked(c.owners[len(c.owners)-1].ID, false)
		c.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// migrateAndPublish executes one planned transition under the cluster
// lock: pull every moved chunk to its gaining resident owner (old owners
// still serving; a lazy owner reads the durable source instead), publish
// the next generation to the gainers first and the rest after, then
// release the bytes the losers no longer own.
func (c *Cluster) migrateAndPublish(next *shardmap.Map, moves []shardmap.Move) error {
	c.migrating.Add(1)
	defer c.migrating.Add(-1)
	start := time.Now()
	var bytes int64
	gainers := make(map[*Owner]bool)
	for _, mv := range moves {
		gainer := c.ownerLocked(mv.ToID)
		if gainer == nil {
			return fmt.Errorf("serveboot: move targets unknown owner %q", mv.ToID)
		}
		gainers[gainer] = true
		if gainer.chunk.hot != nil {
			continue
		}
		n, err := c.pullMove(mv, gainer)
		bytes += n
		if err != nil {
			return err
		}
	}
	// Gainers first: once an owner answers for a moved chunk it must hold
	// the bytes. Losers keep serving under the old generation until their
	// own apply, so the chunk never goes dark.
	for o := range gainers {
		if _, err := o.maps.ApplyIfNewer(next); err != nil {
			return err
		}
	}
	for _, o := range c.owners {
		if gainers[o] {
			continue
		}
		if _, err := o.maps.ApplyIfNewer(next); err != nil {
			return err
		}
	}
	c.cur = next
	for _, o := range c.owners {
		if mi := next.MemberIndex(o.ID); mi >= 0 {
			o.chunk.retainOwned(next, mi)
		}
	}
	c.moved.Add(int64(len(moves)))
	c.migB.Observe(float64(bytes))
	c.migS.Observe(time.Since(start).Seconds())
	return nil
}

// pullMove copies one moved shard onto its gaining owner, preferring the
// planned source owner, then any other live owner of the shard under the
// current generation, and finally the durable backing source (the only
// choice when every holder crashed, From = -1).
func (c *Cluster) pullMove(mv shardmap.Move, gainer *Owner) (int64, error) {
	var addrs []string
	tried := map[string]bool{gainer.ID: true}
	consider := func(id string) {
		if id == "" || tried[id] {
			return
		}
		tried[id] = true
		if o := c.ownerLocked(id); o != nil && !o.crashed.Load() {
			addrs = append(addrs, o.addr)
		}
	}
	consider(mv.FromID)
	if sh, err := c.cur.ShardOf(mv.Lo); err == nil {
		for _, oi := range sh.Owners {
			consider(c.cur.Members[oi].ID)
		}
	}
	var total int64
	for lo := mv.Lo; lo < mv.Hi; lo += migrateBatch {
		hi := lo + migrateBatch
		if hi > mv.Hi {
			hi = mv.Hi
		}
		ids := make([]int64, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ids = append(ids, id)
		}
		raws, err := c.pullBatch(addrs, ids)
		if err != nil {
			// Degrade to the durable source: a crash mid-migration means
			// re-reading, never losing, the chunk.
			if raws, err = c.readBatchFromSource(ids); err != nil {
				return total, fmt.Errorf("serveboot: migrate shard %d [%d,%d) to %s: %w",
					mv.Shard, mv.Lo, mv.Hi, gainer.ID, err)
			}
		}
		for i, id := range ids {
			gainer.chunk.put(id, raws[i])
			total += int64(len(raws[i]))
		}
	}
	return total, nil
}

// pullBatch fetches one id batch over the wire, trying each candidate
// address in order.
func (c *Cluster) pullBatch(addrs []string, ids []int64) ([][]byte, error) {
	var err error
	for _, addr := range addrs {
		cl := c.pulls[addr]
		if cl == nil {
			if cl, err = transport.DialOptions(addr, transport.ClientOptions{Policy: c.cfg.Net}); err != nil {
				continue
			}
			c.pulls[addr] = cl
		}
		var raws [][]byte
		if raws, err = cl.GetBatchRaw(ids); err == nil {
			return raws, nil
		}
	}
	if err == nil {
		err = fmt.Errorf("no live owner holds the chunk")
	}
	return nil, err
}

func (c *Cluster) readBatchFromSource(ids []int64) ([][]byte, error) {
	raws := make([][]byte, len(ids))
	for i, id := range ids {
		raw, err := encodeSample(c.src, id)
		if err != nil {
			return nil, fmt.Errorf("durable source read %d: %w", id, err)
		}
		raws[i] = raw
	}
	return raws, nil
}

// handleReshard is the /admin/reshard?owners=N endpoint: grow or shrink
// the cluster, then report the resulting membership.
func (c *Cluster) handleReshard(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.URL.Query().Get("owners"))
	if err != nil || n < 1 {
		http.Error(w, "reshard needs ?owners=N (N >= 1)", http.StatusBadRequest)
		return
	}
	if err := c.Reshard(n); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	c.mu.Lock()
	resp := struct {
		Generation uint64   `json:"generation"`
		Owners     []string `json:"owners"`
		Addrs      []string `json:"addrs"`
	}{Generation: c.cur.Gen}
	for _, o := range c.owners {
		resp.Owners = append(resp.Owners, o.ID)
		resp.Addrs = append(resp.Addrs, o.addr)
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
