package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// MemberState is a member's health as seen by the local node. States only
// worsen locally (missed heartbeats: alive → suspect → dead); they improve
// through contact with the member itself or a gossiped higher incarnation.
type MemberState int8

const (
	StateAlive MemberState = iota
	StateSuspect
	StateDead
)

func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("MemberState(%d)", int8(s))
	}
}

// MarshalJSON/UnmarshalJSON use the string names so gossip payloads and
// /v1/cluster/info stay readable.
func (s MemberState) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

func (s *MemberState) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "alive":
		*s = StateAlive
	case "suspect":
		*s = StateSuspect
	case "dead":
		*s = StateDead
	default:
		return fmt.Errorf("cluster: unknown member state %q", name)
	}
	return nil
}

// Member is one row of the gossiped member table. ID is the member's
// advertised base URL (e.g. "http://10.0.0.7:8347") — identity and address
// are the same thing, which is what makes the table routable. Wire, when
// non-empty, is the member's binary wire listener ("host:port"); it rides
// the same gossip so peers and smart clients can upgrade replication and
// ingest to the wire transport without extra discovery.
type Member struct {
	ID          string      `json:"id"`
	Incarnation uint64      `json:"incarnation"`
	State       MemberState `json:"state"`
	Wire        string      `json:"wire,omitempty"`
}

type memberEntry struct {
	Member
	lastSeen time.Time
}

// MembershipConfig tunes the failure detector.
type MembershipConfig struct {
	// SuspectAfter marks a member suspect when no gossip exchange has
	// succeeded for this long; DeadAfter marks it dead. Dead members leave
	// the ring but stay in the table (their hinted-handoff queues drain
	// when they return); DropAfter forgets them entirely.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	DropAfter    time.Duration
}

func (c *MembershipConfig) defaults() {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 10 * time.Second
	}
	if c.DropAfter <= 0 {
		c.DropAfter = 10 * time.Minute
	}
}

// Membership is the local view of the cluster: a SWIM-style member table
// merged via incarnation numbers. Higher incarnation always wins; at equal
// incarnation the worse state wins (dead > suspect > alive), so rumors of a
// failure spread until the accused member refutes them by bumping its own
// incarnation. All methods are safe for concurrent use.
type Membership struct {
	cfg  MembershipConfig
	self string

	mu       sync.Mutex
	members  map[string]*memberEntry
	left     bool   // this node announced its own departure (Leave)
	onChange func() // called (without mu) after any routable-set change

	// onTransition is called (without mu) once per recorded member state
	// change — the metrics hook behind
	// counterd_cluster_member_transitions_total.
	onTransition func(id string, from, to MemberState)
}

// stateChange is one member state flip collected under mu and reported to
// the transition hook after unlock.
type stateChange struct {
	id       string
	from, to MemberState
}

// NewMembership builds a table containing self (alive, incarnation 1).
func NewMembership(self string, cfg MembershipConfig, onChange func()) *Membership {
	cfg.defaults()
	m := &Membership{
		cfg:      cfg,
		self:     self,
		members:  make(map[string]*memberEntry),
		onChange: onChange,
	}
	m.members[self] = &memberEntry{
		Member:   Member{ID: self, Incarnation: 1, State: StateAlive},
		lastSeen: time.Now(),
	}
	return m
}

// Self returns the local member ID.
func (m *Membership) Self() string { return m.self }

// OnTransition registers fn to be called, outside the table lock, for every
// member state change the table records (rumor merges, contact recoveries,
// failure-detector demotions, the local Leave). Call before gossip starts.
func (m *Membership) OnTransition(fn func(id string, from, to MemberState)) {
	m.mu.Lock()
	m.onTransition = fn
	m.mu.Unlock()
}

// notify reports collected state changes to the transition hook.
func (m *Membership) notify(changes []stateChange) {
	if len(changes) == 0 {
		return
	}
	m.mu.Lock()
	fn := m.onTransition
	m.mu.Unlock()
	if fn == nil {
		return
	}
	for _, c := range changes {
		fn(c.id, c.from, c.to)
	}
}

// CountState returns how many members the table holds in state s.
func (m *Membership) CountState(s MemberState) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	count := 0
	for _, e := range m.members {
		if e.State == s {
			count++
		}
	}
	return count
}

// SetSelfWire records the local node's advertised wire address so gossip
// spreads it. Call before the first gossip round; the member's own row is
// authoritative for its wire address (rumors never overwrite it).
func (m *Membership) SetSelfWire(addr string) {
	m.mu.Lock()
	m.members[m.self].Wire = addr
	m.mu.Unlock()
}

// WireAddr returns the gossiped wire address of a member ("" if the member
// is unknown or serves no wire listener).
func (m *Membership) WireAddr(id string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.members[id]; ok {
		return e.Wire
	}
	return ""
}

// AddSeed registers a join seed optimistically as alive at incarnation 0 —
// the first gossip exchange replaces it with the seed's real row, and a
// seed that never answers ages out through suspect → dead → dropped.
func (m *Membership) AddSeed(id string) {
	if id == "" || id == m.self {
		return
	}
	m.mu.Lock()
	changed := false
	if _, ok := m.members[id]; !ok {
		m.members[id] = &memberEntry{
			Member:   Member{ID: id, Incarnation: 0, State: StateAlive},
			lastSeen: time.Now(),
		}
		changed = true
	}
	m.mu.Unlock()
	m.changed(changed)
}

// Snapshot returns the full member table, sorted by ID — the gossip payload.
func (m *Membership) Snapshot() []Member {
	m.mu.Lock()
	out := make([]Member, 0, len(m.members))
	for _, e := range m.members {
		out = append(out, e.Member)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RingMembers returns the IDs that belong in the ring: alive and suspect
// members. Suspect members keep their ring share — evicting on a single
// missed heartbeat would reshuffle partitions on every network hiccup.
func (m *Membership) RingMembers() []string {
	m.mu.Lock()
	out := make([]string, 0, len(m.members))
	for id, e := range m.members {
		if e.State != StateDead {
			out = append(out, id)
		}
	}
	m.mu.Unlock()
	sort.Strings(out)
	return out
}

// AlivePeers returns the non-self members currently believed alive.
func (m *Membership) AlivePeers() []string {
	m.mu.Lock()
	out := make([]string, 0, len(m.members))
	for id, e := range m.members {
		if id != m.self && e.State == StateAlive {
			out = append(out, id)
		}
	}
	m.mu.Unlock()
	sort.Strings(out)
	return out
}

// Peers returns every non-self member in the table, including dead ones
// (gossip keeps probing them so a returning node is noticed).
func (m *Membership) Peers() []string {
	m.mu.Lock()
	out := make([]string, 0, len(m.members))
	for id := range m.members {
		if id != m.self {
			out = append(out, id)
		}
	}
	m.mu.Unlock()
	sort.Strings(out)
	return out
}

// State returns the local view of one member.
func (m *Membership) State(id string) (Member, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.members[id]
	if !ok {
		return Member{}, false
	}
	return e.Member, true
}

// Leave announces this node's intentional departure: its own row goes dead
// at a bumped incarnation (outbidding every alive rumor in flight), the
// self-defense refutation is disabled, and the ring rebuilds without it.
// Gossip keeps running so the departure spreads — the caller decides when
// to actually stop the node.
func (m *Membership) Leave() {
	var changes []stateChange
	m.mu.Lock()
	e := m.members[m.self]
	alreadyLeft := m.left
	if !alreadyLeft {
		m.left = true
		e.Incarnation++
		changes = append(changes, stateChange{m.self, e.State, StateDead})
		e.State = StateDead
	}
	m.mu.Unlock()
	m.notify(changes)
	m.changed(!alreadyLeft)
}

// Left reports whether Leave was called.
func (m *Membership) Left() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.left
}

// MergeFrom folds a remote member table into the local one under the SWIM
// rules. Returns whether the routable set may have changed.
func (m *Membership) MergeFrom(remote []Member) {
	var changes []stateChange
	m.mu.Lock()
	changed := false
	for _, r := range remote {
		if r.ID == "" {
			continue
		}
		if r.ID == m.self {
			// Self-defense: someone thinks we are suspect/dead. Refute by
			// outbidding their incarnation; the next gossip round spreads
			// the correction. A node that announced its own departure
			// (Leave) wants the rumor to spread, so it never refutes.
			e := m.members[m.self]
			if !m.left && r.State != StateAlive && r.Incarnation >= e.Incarnation {
				e.Incarnation = r.Incarnation + 1
				if e.State != StateAlive {
					changes = append(changes, stateChange{m.self, e.State, StateAlive})
				}
				e.State = StateAlive
				changed = true
			}
			continue
		}
		e, ok := m.members[r.ID]
		if !ok {
			m.members[r.ID] = &memberEntry{Member: r, lastSeen: time.Now()}
			changed = true
			continue
		}
		switch {
		case r.Incarnation > e.Incarnation:
			if e.State != r.State {
				changes = append(changes, stateChange{r.ID, e.State, r.State})
				changed = true
			}
			e.Incarnation = r.Incarnation
			e.State = r.State
			e.Wire = r.Wire // a higher incarnation carries the fresher row
			if r.State == StateAlive {
				e.lastSeen = time.Now()
			}
		case r.Incarnation == e.Incarnation && r.State > e.State:
			changes = append(changes, stateChange{r.ID, e.State, r.State})
			e.State = r.State
			changed = true
		}
		// A wire address fills in at any >= incarnation: seed and
		// contact-created rows start without one, and the member's own
		// gossip is the only source that sets it.
		if e.Wire == "" && r.Wire != "" && r.Incarnation >= e.Incarnation {
			e.Wire = r.Wire
		}
	}
	m.mu.Unlock()
	m.notify(changes)
	m.changed(changed)
}

// Contact records the outcome of a direct exchange with a member. A success
// is first-hand evidence of life: the member answered, so a suspect row
// recovers to alive at its current incarnation regardless of rumors. A DEAD
// row does NOT recover on contact — a node that left on purpose keeps
// gossiping while it hands its partitions off, and resurrecting it would
// undo the departure. A genuinely returning node rejoins through the
// incarnation refutation instead (it sees the dead rumor about itself and
// outbids it), so contact only refreshes the dead row's timestamp. A
// failure just lets the timeouts run (Tick does the demoting).
func (m *Membership) Contact(id string, ok bool) {
	if !ok || id == m.self {
		return
	}
	var changes []stateChange
	m.mu.Lock()
	changed := false
	e, found := m.members[id]
	if !found {
		m.members[id] = &memberEntry{
			Member:   Member{ID: id, Incarnation: 0, State: StateAlive},
			lastSeen: time.Now(),
		}
		changed = true
	} else {
		e.lastSeen = time.Now()
		if e.State == StateSuspect {
			changes = append(changes, stateChange{id, StateSuspect, StateAlive})
			e.State = StateAlive
			changed = true
		}
	}
	m.mu.Unlock()
	m.notify(changes)
	m.changed(changed)
}

// Tick runs the failure detector: members not heard from age through
// suspect → dead → dropped.
func (m *Membership) Tick() {
	now := time.Now()
	var changes []stateChange
	m.mu.Lock()
	changed := false
	for id, e := range m.members {
		if id == m.self {
			continue
		}
		idle := now.Sub(e.lastSeen)
		switch {
		case idle > m.cfg.DropAfter && e.State == StateDead:
			delete(m.members, id)
			changed = true
		case idle > m.cfg.DeadAfter && e.State != StateDead:
			changes = append(changes, stateChange{id, e.State, StateDead})
			e.State = StateDead
			changed = true
		case idle > m.cfg.SuspectAfter && e.State == StateAlive:
			changes = append(changes, stateChange{id, StateAlive, StateSuspect})
			e.State = StateSuspect
			changed = true
		}
	}
	m.mu.Unlock()
	m.notify(changes)
	m.changed(changed)
}

func (m *Membership) changed(did bool) {
	if did && m.onChange != nil {
		m.onChange()
	}
}
