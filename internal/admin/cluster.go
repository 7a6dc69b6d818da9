// Cluster-facing admin views: /peerz (this member's peer links) and
// /clusterz (the whole fleet through one member's eyes).
//
// /clusterz makes each shadow server its own fleet aggregator. A member
// answers ?scope=self with its local snapshot — counters, the four latency
// histograms as raw bucket arrays, and ring heat — and answers the plain
// request by scraping every configured peer's scope=self endpoint and
// merging: counters field-wise via metrics.Merge, histograms bucket-by-
// bucket (exact, because every member exports the same fixed power-of-two
// grid), and heat by summing per-owner loads and re-deriving the imbalance
// gauge. Operators point a browser or curl at any member and see the
// cluster as one system, with no external scraper in the loop. A member
// that cannot be reached renders as an unhealthy row rather than failing
// the whole view.
package admin

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"shadowedit/internal/cluster"
	"shadowedit/internal/metrics"
	"shadowedit/internal/obs"
	"shadowedit/internal/server"
)

// hotN bounds the hot-file lists a member reports and the fleet view renders.
const hotN = 16

// memberStatus is one member's row in the /clusterz view — also the exact
// shape a member answers for ?scope=self, so fleet aggregation is "fetch
// this struct from every peer and merge".
type memberStatus struct {
	Member        string                           `json:"member"`
	Server        string                           `json:"server"`
	URL           string                           `json:"url,omitempty"`
	Healthy       bool                             `json:"healthy"`
	Error         string                           `json:"error,omitempty"`
	UptimeSeconds float64                          `json:"uptime_seconds"`
	Sessions      int                              `json:"sessions"`
	Counters      metrics.Snapshot                 `json:"counters"`
	Histograms    map[string]obs.HistogramSnapshot `json:"histograms"`
	Heat          server.HeatStats                 `json:"heat"`
}

// latencySummary is one merged histogram's headline quantiles.
type latencySummary struct {
	Count  uint64 `json:"count"`
	P50NS  int64  `json:"p50_ns"`
	P90NS  int64  `json:"p90_ns"`
	P99NS  int64  `json:"p99_ns"`
	MeanNS int64  `json:"mean_ns"`
}

// ringView is the placement slice of /clusterz: who is in the ring and how
// the fleet's file demand lands on them.
type ringView struct {
	Members    []string         `json:"members"`
	OwnerLoads map[string]int64 `json:"owner_loads"`
	Imbalance  float64          `json:"imbalance"`
}

// fleetView is the merged half of /clusterz.
type fleetView struct {
	Members   int                       `json:"members"`
	Healthy   int                       `json:"healthy"`
	Sessions  int                       `json:"sessions"`
	Counters  metrics.Snapshot          `json:"counters"`
	Latencies map[string]latencySummary `json:"latencies"`
	HotFiles  []server.HeatEntry        `json:"hot_files"`
	Imbalance float64                   `json:"imbalance"`
}

// clusterView is /clusterz's JSON shape.
type clusterView struct {
	Self    string         `json:"self"`
	Members []memberStatus `json:"members"`
	Ring    ringView       `json:"ring"`
	Fleet   fleetView      `json:"fleet"`
}

// selfStatus builds this member's scope=self snapshot.
func (h *handler) selfStatus() memberStatus {
	return memberStatus{
		Member:        h.srv.Name(),
		Server:        h.srv.Name(),
		Healthy:       true,
		UptimeSeconds: time.Since(h.start).Seconds(),
		Sessions:      h.srv.SessionCount(),
		Counters:      h.srv.Metrics(),
		Histograms:    h.histogramSnapshots(),
		Heat:          h.srv.HeatStats(hotN),
	}
}

// histogramSnapshots names the observer's latency histograms for export.
// The raw bucket arrays travel in scope=self answers so the aggregating
// member can merge them exactly.
func (h *handler) histogramSnapshots() map[string]obs.HistogramSnapshot {
	m := make(map[string]obs.HistogramSnapshot)
	if h.obs != nil {
		m["submit_ack"] = h.obs.SubmitAck.Snapshot()
		m["pull_arrival"] = h.obs.PullArrival.Snapshot()
		m["job_lifetime"] = h.obs.JobLifetime.Snapshot()
		m["cycle"] = h.obs.Cycle.Snapshot()
	}
	return m
}

// defaultFetch is the peer scraper used when Options.FetchMember is nil.
func defaultFetch(_ string, url string) ([]byte, error) {
	c := &http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 16<<20))
}

// gatherMembers returns the fleet's member rows: self first, then every
// configured peer in name order. Scrape failures become unhealthy rows.
func (h *handler) gatherMembers() []memberStatus {
	rows := []memberStatus{h.selfStatus()}
	names := make([]string, 0, len(h.peers))
	for name := range h.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	fetch := h.fetch
	if fetch == nil {
		fetch = defaultFetch
	}
	for _, name := range names {
		url := strings.TrimSuffix(h.peers[name], "/") + "/clusterz.json?scope=self"
		row := memberStatus{Member: name, URL: url}
		body, err := fetch(name, url)
		if err == nil {
			err = json.Unmarshal(body, &row)
		}
		if err != nil {
			rows = append(rows, memberStatus{Member: name, URL: url, Healthy: false, Error: err.Error()})
			continue
		}
		row.Member, row.URL = name, url
		rows = append(rows, row)
	}
	return rows
}

// mergeFleet folds the healthy members' snapshots into one fleet view:
// counters by field-wise sum, histograms bucket-by-bucket, heat by owner.
func mergeFleet(rows []memberStatus) (fleetView, ringView) {
	f := fleetView{Members: len(rows), Latencies: make(map[string]latencySummary)}
	hists := make(map[string]*obs.HistogramSnapshot)
	loads := make(map[string]int64)
	hot := make(map[string]*server.HeatEntry)
	for i := range rows {
		m := &rows[i]
		if !m.Healthy {
			continue
		}
		f.Healthy++
		f.Sessions += m.Sessions
		f.Counters = metrics.Merge(f.Counters, m.Counters)
		for name, hs := range m.Histograms {
			hs := hs
			if acc, ok := hists[name]; ok {
				acc.Merge(&hs)
			} else {
				hists[name] = &hs
			}
		}
		for owner, n := range m.Heat.OwnerLoads {
			loads[owner] += n
		}
		for _, e := range m.Heat.Top {
			if acc, ok := hot[e.File]; ok {
				acc.Touches += e.Touches
			} else {
				e := e
				hot[e.File] = &e
			}
		}
	}
	for name, hs := range hists {
		f.Latencies[name] = latencySummary{
			Count:  hs.Count,
			P50NS:  hs.Quantile(0.50).Nanoseconds(),
			P90NS:  hs.Quantile(0.90).Nanoseconds(),
			P99NS:  hs.Quantile(0.99).Nanoseconds(),
			MeanNS: hs.Mean().Nanoseconds(),
		}
	}
	for _, e := range hot {
		f.HotFiles = append(f.HotFiles, *e)
	}
	sort.Slice(f.HotFiles, func(a, b int) bool {
		if f.HotFiles[a].Touches != f.HotFiles[b].Touches {
			return f.HotFiles[a].Touches > f.HotFiles[b].Touches
		}
		return f.HotFiles[a].File < f.HotFiles[b].File
	})
	if len(f.HotFiles) > hotN {
		f.HotFiles = f.HotFiles[:hotN]
	}
	f.Imbalance = cluster.Imbalance(loads)
	return f, ringView{OwnerLoads: loads, Imbalance: f.Imbalance}
}

// clusterz serves the fleet view. ?scope=self answers with this member's
// snapshot only (the unit of aggregation); otherwise the handler scrapes
// every configured peer and merges. The /clusterz.json alias and
// ?format=json render JSON; the default is text for eyes.
func (h *handler) clusterz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("scope") == "self" {
		writeJSON(w, h.selfStatus())
		return
	}
	rows := h.gatherMembers()
	fleet, ring := mergeFleet(rows)
	ring.Members = h.srv.ClusterMembers()
	if ring.Members == nil {
		ring.Members = []string{h.srv.Name()}
	}
	v := clusterView{Self: h.srv.Name(), Members: rows, Ring: ring, Fleet: fleet}
	if wantJSON(r) || strings.HasSuffix(r.URL.Path, ".json") {
		writeJSON(w, v)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d members, %d healthy (viewed from %s)\n", fleet.Members, fleet.Healthy, v.Self)
	for _, m := range v.Members {
		if !m.Healthy {
			fmt.Fprintf(&b, "  %-12s DOWN  %s (%s)\n", m.Member, m.URL, m.Error)
			continue
		}
		where := "(self)"
		if m.URL != "" {
			where = m.URL
		}
		fmt.Fprintf(&b, "  %-12s up    sessions=%d uptime=%.1fs messages=%d peer-forwards=%d  %s\n",
			m.Member, m.Sessions, m.UptimeSeconds, m.Counters.Messages, m.Counters.PeerForwards, where)
	}
	fmt.Fprintf(&b, "\nring: %s  imbalance=%.2f\n", strings.Join(ring.Members, " "), ring.Imbalance)
	owners := make([]string, 0, len(ring.OwnerLoads))
	for o := range ring.OwnerLoads {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	for _, o := range owners {
		fmt.Fprintf(&b, "  owner %-12s %d touches\n", o, ring.OwnerLoads[o])
	}
	c := fleet.Counters
	fmt.Fprintf(&b, "\nfleet counters: %d sessions, %d messages, %d delta bytes, %d full bytes, %d peer forwards, %d peer negatives, %d file touches\n",
		fleet.Sessions, c.Messages, c.DeltaBytes, c.FullBytes, c.PeerForwards, c.PeerNegatives, c.FileTouches)
	names := make([]string, 0, len(fleet.Latencies))
	for n := range fleet.Latencies {
		names = append(names, n)
	}
	sort.Strings(names)
	b.WriteString("fleet latency (merged bucket-exact):\n")
	for _, n := range names {
		l := fleet.Latencies[n]
		fmt.Fprintf(&b, "  %-12s n=%-6d p50=%-10v p90=%-10v p99=%v\n",
			n, l.Count, time.Duration(l.P50NS), time.Duration(l.P90NS), time.Duration(l.P99NS))
	}
	if len(fleet.HotFiles) > 0 {
		fmt.Fprintf(&b, "hot files (fleet top %d):\n", len(fleet.HotFiles))
		for _, e := range fleet.HotFiles {
			fmt.Fprintf(&b, "  %6d  %-12s %s\n", e.Touches, e.Owner, e.File)
		}
	}
	writeText(w, b.String())
}

// peerzView is /peerz's JSON shape.
type peerzView struct {
	Links    []server.PeerLinkInfo    `json:"links"`
	Sessions []server.PeerSessionInfo `json:"sessions"`
}

// peerz shows this member's side of the peer mesh: outbound links with
// their per-link fetch counters, and inbound peer
// sessions with what this member served or declined for them.
func (h *handler) peerz(w http.ResponseWriter, r *http.Request) {
	v := peerzView{Links: h.srv.PeerLinks(), Sessions: h.srv.PeerSessions()}
	if wantJSON(r) {
		writeJSON(w, v)
		return
	}
	var b strings.Builder
	if len(v.Links) == 0 && len(v.Sessions) == 0 {
		b.WriteString("not clustered (no peer links or peer sessions)\n")
	}
	if len(v.Links) > 0 {
		fmt.Fprintf(&b, "outbound peer links (%d):\n", len(v.Links))
		for _, l := range v.Links {
			fmt.Fprintf(&b, "  %-12s %-4s fetching=%d deltas-in=%d chunks-in=%d negatives-in=%d fallbacks=%d\n",
				l.Member, l.State, l.Fetching, l.DeltasIn, l.ChunksIn, l.NegativesIn, l.Fallbacks)
		}
	}
	if len(v.Sessions) > 0 {
		fmt.Fprintf(&b, "inbound peer sessions (%d):\n", len(v.Sessions))
		for _, s := range v.Sessions {
			fmt.Fprintf(&b, "  session %-4d instance=%-12s served=%d declined=%d\n",
				s.Session, s.Instance, s.Served, s.Declined)
		}
	}
	writeText(w, b.String())
}
