//! Shared mesh state: link reservations, router reservation tables, and the
//! two routing algorithms (Venice's non-minimal fully-adaptive scout walk,
//! and dimension-order XY used by NoSSD).

use venice_sim::rng::Lfsr2;

use crate::router::{Port, ReservationTable};
use crate::{Direction, LinkId, Mesh2D, NodeId};

/// A reserved circuit through the mesh: the ordered nodes and links from the
/// source (controller attach) node to the destination flash node.
///
/// Paths handed out by [`MeshState::scout_walk`] / [`MeshState::xy_path`]
/// draw their `nodes`/`links` buffers from the mesh's internal pool; return
/// them with [`MeshState::release_owned`] (or [`MeshState::recycle`] for
/// never-reserved paths) to keep steady-state routing allocation-free.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReservedPath {
    /// Packet ID (= source controller ID) holding the reservation.
    pub packet_id: u8,
    /// Nodes visited, source first, destination last.
    pub nodes: Vec<NodeId>,
    /// Links reserved, in traversal order (`nodes.len() - 1` of them).
    pub links: Vec<LinkId>,
}

impl ReservedPath {
    /// Number of router-to-router hops.
    pub fn hops(&self) -> u32 {
        self.links.len() as u32
    }

    /// Bounding box of the path's nodes as `(min_row, max_row, min_col,
    /// max_col)` in `topo` — the *mesh region* a release reports on its
    /// wake list (any chip whose route could cross this box may have been
    /// unblocked by freeing these links).
    ///
    /// # Panics
    ///
    /// Panics if the path is empty (granted paths never are: they carry at
    /// least the source node).
    pub fn extent(&self, topo: &crate::Mesh2D) -> (u16, u16, u16, u16) {
        assert!(!self.nodes.is_empty(), "extent of an empty path");
        let mut ext = (u16::MAX, 0u16, u16::MAX, 0u16);
        for &n in &self.nodes {
            let (r, c) = (topo.row(n), topo.col(n));
            ext = (ext.0.min(r), ext.1.max(r), ext.2.min(c), ext.3.max(c));
        }
        ext
    }
}

/// Why a scout walk failed to reserve a path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScoutFailure {
    /// Total forward/backtrack steps taken before giving up.
    pub steps: u32,
    /// True when the scout made it past the source router before being
    /// cancelled — the blockage sits deep in the mesh. False means every
    /// usable port out of the source was already held: purely local
    /// congestion that a different controller choice might sidestep.
    pub advanced: bool,
    /// Misroute (non-minimal port) selections made before giving up.
    pub misroutes: u32,
    /// LFSR bits the walk consumed (tie-breaks + misroute picks).
    pub lfsr_draws: u32,
    /// True when the livelock entry cap rejected at least one port that
    /// passed every other usability test. A capped walk's exploration tree
    /// depends on visit order (and therefore on the LFSR phase it started
    /// from), so its failure is **not cacheable**: only cap-free failures
    /// have phase-invariant verdict/steps/draws (see
    /// [`crate::scout::ScoutCache`]).
    pub cap_pruned: bool,
    /// Bounding box `(min_row, max_row, min_col, max_col)` of every router
    /// the scout *entered*. Every link whose state the walk observed has at
    /// least one endpoint in this box, so any later reservation-state change
    /// inside the box is a superset of the changes that could alter the
    /// walk's outcome — the fast-fail cache's invalidation extent.
    pub extent: (u16, u16, u16, u16),
}

/// Outcome statistics of a successful scout walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScoutOutcome {
    /// Steps taken, counting forward moves and backtracks.
    pub steps: u32,
    /// True if the walk ever had to misroute (take a non-minimal port) or
    /// backtrack — i.e. a minimal path was not cleanly available.
    pub detoured: bool,
    /// Misroute (non-minimal port) selections made along the way.
    pub misroutes: u32,
    /// LFSR bits the walk consumed (tie-breaks + misroute picks).
    pub lfsr_draws: u32,
}

/// Scout scratch flag: the router is on the walk's tentative path.
const ON_PATH: u8 = 0x80;

/// [`Frame::entry`] of the source frame: the scout enters its first router
/// from the controller's injection port, not a mesh direction.
const INJECTION: u8 = 4;

/// One DFS frame of a scout walk.
#[derive(Clone, Copy, Debug)]
struct Frame {
    node: u16,
    /// [`Direction::index`] of the port the scout entered on, or
    /// [`INJECTION`] for the source.
    entry: u8,
    /// Output directions already attempted from this frame, one bit per
    /// [`Direction::index`].
    tried: u8,
}

/// Precomputed per-router tables for the scout inner loop, so a DFS step
/// does no row/column arithmetic of [`Mesh2D::neighbor`] / [`Mesh2D::link`].
#[derive(Clone, Copy, Debug)]
struct NodeInfo {
    row: u16,
    col: u16,
    /// Neighbor per [`Direction::index`]; the one-past-the-end sentinel
    /// (the node count) at the mesh edge, whose scout scratch slot is
    /// always zero.
    nbr: [u16; 4],
    /// Connecting link per [`Direction::index`] (unused at the mesh edge).
    link: [u32; 4],
}

/// Mutable reservation state of a 2D-mesh interconnect: per-link owner and
/// per-router reservation tables.
///
/// Used by both the Venice fabric (scout walks + circuit switching) and the
/// NoSSD fabric (XY paths). All mutation is instantaneous from the
/// simulation's perspective; the caller charges the appropriate wire
/// latencies.
///
/// The mesh owns reusable scout scratch (per-router entry counters, the DFS
/// stack) and a pool of [`ReservedPath`] buffers, so steady-state routing
/// performs no heap allocation.
#[derive(Clone, Debug)]
pub struct MeshState {
    topo: Mesh2D,
    /// `Some(packet_id)` when reserved.
    links: Vec<Option<u8>>,
    routers: Vec<ReservationTable>,
    controllers: usize,
    /// Scout scratch, one byte per router plus the edge sentinel: the
    /// livelock entry count in the low bits and [`ON_PATH`] while the
    /// router is on the walk's tentative path. Zeroed at the start of every
    /// walk.
    scout_visits: Vec<u8>,
    /// Scout scratch: the DFS stack, i.e. the tentative path.
    scout_stack: Vec<Frame>,
    /// Recycled `ReservedPath` buffers.
    path_pool: Vec<ReservedPath>,
    /// Per-router coordinates, neighbors and links.
    info: Vec<NodeInfo>,
    /// Per-router open-port mask: bit [`Direction::index`] is set when the
    /// neighbor in that direction exists, the connecting link is free
    /// ([`MeshState::link_free`]) and the neighbor router is not down. Every
    /// change to link owners or fault masks goes through
    /// [`MeshState::stamp_nodes`], which recomputes the mask of each router
    /// it stamps — the contract that keeps this cache exact.
    open: Vec<u8>,
    /// Fault mask: `true` for links taken down by a fault event. A downed
    /// link rejects new reservations (scout walks and XY circuits alike)
    /// until repaired; a circuit already holding the link drains normally
    /// and the link stays blocked after its release.
    link_down: Vec<bool>,
    /// Fault mask: `true` for routers taken down by a fault event. The
    /// scout DFS refuses to *enter* a downed router and
    /// [`MeshState::try_reserve_path`] rejects paths crossing one.
    router_down: Vec<bool>,
    /// Monotone change sequence: bumped once per reservation-state change
    /// (a circuit installed or released, a fault mask flipped). Failed
    /// scout walks write nothing to the mesh and do **not** bump it.
    change_seq: u64,
    /// Per-router generation stamp: the [`MeshState::change_seq`] value of
    /// the last reservation change that touched the router. A region whose
    /// stamps are all ≤ some snapshot is bit-identical to how it looked at
    /// snapshot time — the contract the scout fast-fail cache keys on.
    stamps: Vec<u64>,
    /// Second level over [`MeshState::stamps`]: the maximum stamp in each
    /// mesh row, so a validity scan skips whole clean rows in O(1) — on a
    /// saturated 32×32 mesh a fast-fail's extent is often the entire mesh,
    /// and without this tier the O(rows × cols) tile scan eats a good part
    /// of the skipped walk's savings.
    row_stamps: Vec<u64>,
}

impl MeshState {
    /// Creates an idle mesh with `controllers` packet IDs per router table.
    pub fn new(topo: Mesh2D, controllers: usize) -> Self {
        let nodes = topo.node_count();
        assert!(nodes < usize::from(u16::MAX), "mesh too large for u16 node ids");
        let info = (0..nodes as u16)
            .map(|n| {
                let n = NodeId(n);
                let mut nbr = [nodes as u16; 4];
                let mut link = [0; 4];
                for d in Direction::ALL {
                    if let (Some(nb), Some(l)) = (topo.neighbor(n, d), topo.link(n, d)) {
                        nbr[d.index()] = nb.0;
                        link[d.index()] = l.0;
                    }
                }
                NodeInfo {
                    row: topo.row(n),
                    col: topo.col(n),
                    nbr,
                    link,
                }
            })
            .collect();
        let mut mesh = MeshState {
            topo,
            links: vec![None; topo.link_count()],
            routers: (0..nodes).map(|_| ReservationTable::new(controllers)).collect(),
            controllers,
            scout_visits: vec![0; nodes + 1],
            scout_stack: Vec::new(),
            path_pool: Vec::new(),
            info,
            open: vec![0; nodes],
            link_down: vec![false; topo.link_count()],
            router_down: vec![false; nodes],
            change_seq: 0,
            stamps: vec![0; nodes],
            row_stamps: vec![0; usize::from(topo.rows())],
        };
        for n in 0..nodes {
            mesh.open[n] = mesh.open_mask(n);
        }
        mesh
    }

    /// The open-port mask of router `n` recomputed from the link owners and
    /// fault masks (see [`MeshState::open`]).
    fn open_mask(&self, n: usize) -> u8 {
        let info = &self.info[n];
        (0..4).fold(0, |mask, d| {
            let nb = usize::from(info.nbr[d]);
            let open = nb < self.router_down.len()
                && !self.router_down[nb]
                && self.link_free(LinkId(info.link[d]));
            mask | u8::from(open) << d
        })
    }

    /// The current reservation-change sequence number (see
    /// [`MeshState::region_changed_since`]). Snapshot it when recording a
    /// failed-walk cache entry.
    pub fn change_seq(&self) -> u64 {
        self.change_seq
    }

    /// The change-sequence stamp of the last reservation change touching
    /// router `n` (0 when never touched).
    pub fn node_stamp(&self, n: NodeId) -> u64 {
        self.stamps[n.0 as usize]
    }

    /// True when any router inside the `(min_row, max_row, min_col,
    /// max_col)` box has seen a reservation change after `snapshot` — the
    /// O(extent tiles) validity test of the scout fast-fail cache.
    pub fn region_changed_since(
        &self,
        snapshot: u64,
        extent: (u16, u16, u16, u16),
    ) -> bool {
        // Every reservation change stamps at least one router, so an
        // unchanged global sequence proves the whole mesh — a fortiori any
        // region — is untouched: the O(1) common case for retries landing
        // between two fabric state changes.
        if self.change_seq <= snapshot {
            return false;
        }
        let (min_row, max_row, min_col, max_col) = extent;
        let full_width = min_col == 0 && max_col + 1 == self.topo.cols();
        for r in min_row..=max_row {
            // Row tier: a row whose maximum stamp is ≤ the snapshot cannot
            // contain a changed tile; a dirty full-width row is decisive.
            if self.row_stamps[usize::from(r)] <= snapshot {
                continue;
            }
            if full_width {
                return true;
            }
            for c in min_col..=max_col {
                if self.stamps[self.topo.node_at(r, c).0 as usize] > snapshot {
                    return true;
                }
            }
        }
        false
    }

    /// Records one reservation-state change touching `nodes`: bumps the
    /// change sequence and stamps every touched router with it. Both
    /// installing and releasing a circuit stamp its nodes — a fast-fail
    /// verdict is only replayable while the observed region is unchanged in
    /// *either* direction (a freed link could un-block the walk; a newly
    /// reserved one would change its exploration and LFSR draws).
    ///
    /// It also recomputes the open-port mask of every stamped router, so
    /// callers must pass every router whose mask the change can move: both
    /// endpoints of each link whose owner or fault mask changed, and every
    /// neighbor of a router whose fault mask changed.
    fn stamp_nodes(&mut self, nodes: &[NodeId]) {
        self.change_seq += 1;
        let seq = self.change_seq;
        for &n in nodes {
            let i = usize::from(n.0);
            self.stamps[i] = seq;
            self.row_stamps[usize::from(self.info[i].row)] = seq;
            self.open[i] = self.open_mask(i);
        }
    }

    /// Takes an empty path buffer from the pool (or allocates one).
    fn pooled_path(&mut self, packet_id: u8) -> ReservedPath {
        let mut p = self.path_pool.pop().unwrap_or_default();
        p.packet_id = packet_id;
        debug_assert!(p.nodes.is_empty() && p.links.is_empty());
        p
    }

    /// Returns a path's buffers to the pool **without** touching any
    /// reservations (for paths that were never, or are no longer, reserved).
    pub fn recycle(&mut self, mut path: ReservedPath) {
        path.nodes.clear();
        path.links.clear();
        // Bound pool growth; in steady state there is one path per
        // controller plus a few transients.
        if self.path_pool.len() < 4 * self.controllers + 8 {
            self.path_pool.push(path);
        }
    }

    /// Releases a circuit and recycles its buffers: the allocation-free
    /// steady-state variant of [`MeshState::release`].
    pub fn release_owned(&mut self, path: ReservedPath) {
        self.release(&path);
        self.recycle(path);
    }

    /// The mesh topology.
    pub fn topology(&self) -> Mesh2D {
        self.topo
    }

    /// Number of controllers (packet ID space).
    pub fn controllers(&self) -> usize {
        self.controllers
    }

    /// True if the link is currently unreserved **and** not masked down by
    /// a fault: the single gate every reservation path (scout walk, XY
    /// circuit, explicit reserve) goes through.
    pub fn link_free(&self, l: LinkId) -> bool {
        self.links[l.0 as usize].is_none() && !self.link_down[l.0 as usize]
    }

    /// True when the link is masked down by a fault.
    pub fn link_is_down(&self, l: LinkId) -> bool {
        self.link_down[l.0 as usize]
    }

    /// True when the router is masked down by a fault.
    pub fn router_is_down(&self, n: NodeId) -> bool {
        self.router_down[n.0 as usize]
    }

    /// Sets the fault mask of the link between adjacent nodes `a` and `b`
    /// (in either order); `up = false` takes it down, `up = true` repairs
    /// it. Both transitions stamp the link's endpoint routers — the
    /// fault-event contract: a cached scout verdict that observed the link
    /// entered at least one endpoint, so stamping both endpoints
    /// invalidates every intersecting [`crate::scout::ScoutCache`] extent
    /// (a downed link can newly block a walk; a repaired one can un-block
    /// it). Returns `false` when `a` and `b` are not adjacent.
    pub fn set_link_state(&mut self, a: NodeId, b: NodeId, up: bool) -> bool {
        let Some(link) = Direction::ALL
            .into_iter()
            .find(|&d| self.topo.neighbor(a, d) == Some(b))
            .and_then(|d| self.topo.link(a, d))
        else {
            return false;
        };
        let down = !up;
        if self.link_down[link.0 as usize] != down {
            self.link_down[link.0 as usize] = down;
            self.stamp_nodes(&[a, b]);
        }
        true
    }

    /// Sets the fault mask of router `n`; `up = false` takes it down,
    /// `up = true` repairs it. Both transitions stamp the router **and all
    /// its neighbors**: a walk blocked while trying to enter `n` only has
    /// the neighbor it probed from in its recorded extent, so stamping `n`
    /// alone would leave that cached verdict replayable against changed
    /// state.
    pub fn set_router_state(&mut self, n: NodeId, up: bool) {
        let down = !up;
        if self.router_down[n.0 as usize] == down {
            return;
        }
        self.router_down[n.0 as usize] = down;
        let mut touched = [n; 5];
        let mut count = 1;
        for nb in self.info[usize::from(n.0)].nbr {
            if usize::from(nb) < self.info.len() {
                touched[count] = NodeId(nb);
                count += 1;
            }
        }
        self.stamp_nodes(&touched[..count]);
    }

    /// Which packet holds a link, if any.
    pub fn link_owner(&self, l: LinkId) -> Option<u8> {
        self.links[l.0 as usize]
    }

    /// Number of currently reserved links.
    pub fn reserved_link_count(&self) -> usize {
        self.links.iter().filter(|l| l.is_some()).count()
    }

    /// Read access to a router's reservation table (for diagnostics/tests).
    pub fn router(&self, n: NodeId) -> &ReservationTable {
        &self.routers[n.0 as usize]
    }

    /// Reserves an explicit node path for `packet_id` (test/scenario setup;
    /// the Venice fabric itself reserves via [`MeshState::scout_walk`]).
    ///
    /// # Panics
    ///
    /// Panics if consecutive nodes are not adjacent, a link is already
    /// reserved, or a router already holds a row for this packet.
    pub fn reserve_explicit(&mut self, packet_id: u8, nodes: &[NodeId]) -> ReservedPath {
        assert!(!nodes.is_empty(), "path must contain at least one node");
        let mut links = Vec::with_capacity(nodes.len().saturating_sub(1));
        let mut entry = Port::Injection;
        for w in nodes.windows(2) {
            let dir = Direction::ALL
                .into_iter()
                .find(|&d| self.topo.neighbor(w[0], d) == Some(w[1]))
                .expect("consecutive nodes must be adjacent");
            let link = self.topo.link(w[0], dir).expect("adjacent nodes share a link");
            assert!(self.link_free(link), "link {link} already reserved");
            self.links[link.0 as usize] = Some(packet_id);
            self.routers[w[0].0 as usize]
                .insert(packet_id, entry, Port::Mesh(dir))
                .expect("router row free");
            entry = Port::Mesh(dir.opposite());
            links.push(link);
        }
        let last = *nodes.last().expect("non-empty");
        self.routers[last.0 as usize]
            .insert(packet_id, entry, Port::Ejection)
            .expect("router row free");
        self.stamp_nodes(nodes);
        ReservedPath {
            packet_id,
            nodes: nodes.to_vec(),
            links,
        }
    }

    /// Releases a circuit: frees its links and clears its router rows.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the path's links were not owned by its packet —
    /// that would indicate reservation bookkeeping corruption.
    pub fn release(&mut self, path: &ReservedPath) {
        for &l in &path.links {
            debug_assert_eq!(self.links[l.0 as usize], Some(path.packet_id));
            self.links[l.0 as usize] = None;
        }
        for &n in &path.nodes {
            self.routers[n.0 as usize].remove(path.packet_id);
        }
        self.stamp_nodes(&path.nodes);
    }

    /// The dimension-order (XY) path from `src` to `dst`: X (columns) first,
    /// then Y (rows) — NoSSD's deterministic minimal route.
    ///
    /// The returned path draws its buffers from the mesh's pool; hand it
    /// back with [`MeshState::recycle`] / [`MeshState::release_owned`] to
    /// keep routing allocation-free.
    pub fn xy_path(&mut self, src: NodeId, dst: NodeId) -> ReservedPath {
        let mut path = self.pooled_path(0);
        path.nodes.push(src);
        let mut cur = src;
        loop {
            let dc = i32::from(self.topo.col(dst)) - i32::from(self.topo.col(cur));
            let dr = i32::from(self.topo.row(dst)) - i32::from(self.topo.row(cur));
            let dir = if dc > 0 {
                Direction::Right
            } else if dc < 0 {
                Direction::Left
            } else if dr > 0 {
                Direction::Down
            } else if dr < 0 {
                Direction::Up
            } else {
                break;
            };
            path.links.push(self.topo.link(cur, dir).expect("in-mesh step"));
            cur = self.topo.neighbor(cur, dir).expect("in-mesh step");
            path.nodes.push(cur);
        }
        path
    }

    /// True when `path` crosses a fault-masked resource (a downed link or
    /// router): the reservation failure is *structural*, not contention —
    /// retrying the same route cannot succeed until a repair event. With no
    /// faults injected this is always `false`, so fault-aware callers (the
    /// NoSSD controller fallback) behave identically to the pre-fault code.
    pub fn path_fault_blocked(&self, path: &ReservedPath) -> bool {
        path.nodes.iter().any(|&n| self.router_down[n.0 as usize])
            || path.links.iter().any(|&l| self.link_down[l.0 as usize])
    }

    /// Attempts to atomically reserve an explicit path (used by the NoSSD
    /// fabric for its XY circuits). Returns `false` — reserving nothing —
    /// if any link on the path is busy.
    pub fn try_reserve_path(&mut self, packet_id: u8, path: &ReservedPath) -> bool {
        if path.nodes.iter().any(|&n| self.router_down[n.0 as usize]) {
            return false;
        }
        if !path.links.iter().all(|&l| self.link_free(l)) {
            return false;
        }
        for &l in &path.links {
            self.links[l.0 as usize] = Some(packet_id);
        }
        // NoSSD routers are buffered and have no reservation table; rows are
        // only maintained for the Venice walk, so nothing to record here.
        self.stamp_nodes(&path.nodes);
        true
    }

    /// Venice's path reservation: routes a scout packet from `src` to `dst`
    /// with the non-minimal fully-adaptive algorithm (Algorithm 1),
    /// backtracking in cancel mode when stuck, and bounding revisits per
    /// router (livelock rule: at most 3 revisits, i.e. 4 entries).
    ///
    /// On success the path's links are left reserved for `packet_id` and the
    /// corresponding router-reservation-table rows are installed; the caller
    /// later frees them with [`MeshState::release`]. On failure the mesh is
    /// unchanged: the walk keeps its tentative path in scratch and writes
    /// links and rows only once it reaches `dst`, so a failed walk writes
    /// nothing at all (no link, row, stamp or change-sequence bump).
    ///
    /// `lfsr` provides the 2-bit hardware tie-break between two minimal
    /// candidate ports.
    ///
    /// # Errors
    ///
    /// [`ScoutFailure`] when every feasible port assignment was exhausted
    /// (the scout returned to the source controller in cancel mode).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` are out of the mesh or `packet_id` exceeds
    /// the controller count.
    pub fn scout_walk(
        &mut self,
        packet_id: u8,
        src: NodeId,
        dst: NodeId,
        lfsr: &mut Lfsr2,
    ) -> Result<(ReservedPath, ScoutOutcome), ScoutFailure> {
        self.scout_walk_opts(packet_id, src, dst, lfsr, true)
    }

    /// [`MeshState::scout_walk`] with the non-minimal misrouting stage made
    /// optional (`allow_misroute = false` restricts the scout to minimal
    /// ports plus backtracking — the ablation of §4.3's key technique).
    ///
    /// The packet must hold no circuit when it walks (checked in debug
    /// builds): a router row of its own outside the tentative path would
    /// block the hardware walk, and the scratch walk does not consult rows.
    pub fn scout_walk_opts(
        &mut self,
        packet_id: u8,
        src: NodeId,
        dst: NodeId,
        lfsr: &mut Lfsr2,
        allow_misroute: bool,
    ) -> Result<(ReservedPath, ScoutOutcome), ScoutFailure> {
        assert!((src.0 as usize) < self.topo.node_count(), "src out of mesh");
        assert!((dst.0 as usize) < self.topo.node_count(), "dst out of mesh");
        assert!(
            usize::from(packet_id) < self.controllers,
            "packet id out of range"
        );
        debug_assert!(
            self.routers.iter().all(|t| t.entry(packet_id).is_none()),
            "packet {packet_id} walks while holding router rows"
        );

        // Reusable scratch: take the buffers out of `self` for the duration
        // of the walk (a success installs the path through `&mut self`).
        let mut visits = std::mem::take(&mut self.scout_visits);
        let mut stack = std::mem::take(&mut self.scout_stack);
        let result =
            self.scout_walk_dfs(packet_id, src, dst, lfsr, allow_misroute, &mut visits, &mut stack);
        self.scout_visits = visits;
        self.scout_stack = stack;
        result
    }

    /// The DFS body of [`MeshState::scout_walk_opts`], operating on the
    /// caller-provided scratch buffers. Reads the mesh only; the one write
    /// is [`MeshState::install_walk`] on success.
    ///
    /// A port is usable when its bit is set in the router's open mask (a
    /// neighbor exists, the link is free, the neighbor is up), it has not
    /// been tried from this frame, the neighbor is not on the tentative
    /// path, and the neighbor is under the livelock entry cap. The last
    /// test is kept apart: a port that fails only the cap marks the walk
    /// `cap_pruned`.
    #[allow(clippy::too_many_arguments)]
    fn scout_walk_dfs(
        &mut self,
        packet_id: u8,
        src: NodeId,
        dst: NodeId,
        lfsr: &mut Lfsr2,
        allow_misroute: bool,
        visits: &mut Vec<u8>,
        stack: &mut Vec<Frame>,
    ) -> Result<(ReservedPath, ScoutOutcome), ScoutFailure> {
        // Livelock bound: a scout may enter a router at most `1 + 3` times
        // (ports minus the entry port, per the paper's §4.3 footnote).
        const MAX_ENTRIES_PER_ROUTER: u8 = 4;
        const RIGHT: u8 = 1 << Direction::Right.index();
        const UP: u8 = 1 << Direction::Up.index();
        const DOWN: u8 = 1 << Direction::Down.index();
        const LEFT: u8 = 1 << Direction::Left.index();
        visits.clear();
        visits.resize(self.info.len() + 1, 0);
        visits[usize::from(src.0)] = ON_PATH | 1;

        stack.clear();
        stack.push(Frame {
            node: src.0,
            entry: INJECTION,
            tried: 0,
        });
        let mut steps: u32 = 0;
        let mut detoured = false;
        let mut advanced = false;
        let mut misroutes: u32 = 0;
        let mut lfsr_draws: u32 = 0;
        let mut cap_pruned = false;
        // Bounding box of entered routers (the fast-fail cache's extent).
        let src_info = self.info[usize::from(src.0)];
        let mut extent = (src_info.row, src_info.row, src_info.col, src_info.col);
        let dst_info = self.info[usize::from(dst.0)];
        // Hard safety net: the DFS tries each (router, port) pair at most
        // once per episode, so steps are bounded; guard against logic bugs.
        let step_cap = (self.topo.node_count() as u32) * 16 + 64;

        loop {
            steps += 1;
            assert!(steps <= step_cap, "scout walk exceeded step bound");
            let top = stack.len() - 1;
            let frame = stack[top];
            if frame.node == dst.0 {
                let outcome = ScoutOutcome {
                    steps,
                    detoured,
                    misroutes,
                    lfsr_draws,
                };
                return Ok((self.install_walk(packet_id, stack), outcome));
            }
            let cur = usize::from(frame.node);
            let info = &self.info[cur];
            debug_assert_eq!(self.open[cur], self.open_mask(cur), "stale open mask");

            // Minimal ports, Algorithm 1: one per axis that still differs.
            // Row index grows downward, so a destination below means Down.
            let horizontal = match dst_info.col.cmp(&info.col) {
                std::cmp::Ordering::Greater => RIGHT,
                std::cmp::Ordering::Less => LEFT,
                std::cmp::Ordering::Equal => 0,
            };
            let vertical = match dst_info.row.cmp(&info.row) {
                std::cmp::Ordering::Greater => DOWN,
                std::cmp::Ordering::Less => UP,
                std::cmp::Ordering::Equal => 0,
            };
            let minimal = horizontal | vertical;

            // Neighbors on the tentative path (a circuit crosses a router
            // once) and neighbors at the livelock entry cap.
            let mut on_path = 0u8;
            let mut at_cap = 0u8;
            for (d, &nb) in info.nbr.iter().enumerate() {
                let v = visits[usize::from(nb)];
                on_path |= u8::from(v & ON_PATH != 0) << d;
                at_cap |= u8::from(v & !ON_PATH >= MAX_ENTRIES_PER_ROUTER) << d;
            }
            let passable = self.open[cur] & !frame.tried & !on_path;
            let usable = passable & !at_cap;
            let capped = passable & at_cap;

            cap_pruned |= capped & minimal != 0;
            let candidates = usable & minimal;
            let choice = if candidates != 0 {
                if candidates.count_ones() == 2 {
                    // Two minimal candidates: LFSR tie-break (Alg. 1 line
                    // 28), horizontal first.
                    lfsr_draws += 1;
                    if lfsr.next_bit() {
                        vertical
                    } else {
                        horizontal
                    }
                } else {
                    candidates
                }
            } else {
                // No minimal port: misroute through any usable port (Alg. 1
                // lines 34–45), picked pseudo-randomly in direction order.
                let pool = if allow_misroute {
                    cap_pruned |= capped != 0;
                    usable
                } else {
                    0
                };
                if pool == 0 {
                    0
                } else {
                    detoured = true;
                    misroutes += 1;
                    // Select with successive LFSR bits: cheap hardware
                    // equivalent of a uniform pick among ≤ 4 options.
                    lfsr_draws += 2;
                    let hi = usize::from(lfsr.next_bit());
                    let lo = usize::from(lfsr.next_bit());
                    let mut rest = pool;
                    for _ in 0..(hi * 2 + lo) % pool.count_ones() as usize {
                        rest &= rest - 1;
                    }
                    rest & rest.wrapping_neg()
                }
            };

            if choice != 0 {
                let d = choice.trailing_zeros() as usize;
                stack[top].tried |= choice;
                let nb = info.nbr[d];
                let slot = &mut visits[usize::from(nb)];
                *slot = (*slot + 1) | ON_PATH;
                advanced = true;
                let nb_info = &self.info[usize::from(nb)];
                extent = (
                    extent.0.min(nb_info.row),
                    extent.1.max(nb_info.row),
                    extent.2.min(nb_info.col),
                    extent.3.max(nb_info.col),
                );
                stack.push(Frame {
                    node: nb,
                    entry: 3 - d as u8, // Direction::opposite by index
                    tried: 0,
                });
            } else {
                // Dead end: backtrack in cancel mode (Alg. 1 line 47).
                detoured = true;
                let dead = stack.pop().expect("nonempty");
                visits[usize::from(dead.node)] &= !ON_PATH;
                if stack.is_empty() {
                    // Scout arrived back at the controller: failure. The
                    // walk wrote nothing, so no generation stamp moves —
                    // that is what lets the fast-fail cache treat "stamps
                    // unchanged" as "this exact failure replays".
                    return Err(ScoutFailure {
                        steps,
                        advanced,
                        misroutes,
                        lfsr_draws,
                        cap_pruned,
                        extent,
                    });
                }
            }
        }
    }

    /// Installs a successful walk's tentative path (`stack`, source first):
    /// reserves every link for `packet_id`, installs one router row per
    /// node (the destination's exits to the ejection port), and stamps the
    /// path.
    fn install_walk(&mut self, packet_id: u8, stack: &[Frame]) -> ReservedPath {
        let mut path = self.pooled_path(packet_id);
        for (i, f) in stack.iter().enumerate() {
            let node = usize::from(f.node);
            let entry = match f.entry {
                INJECTION => Port::Injection,
                d => Port::Mesh(Direction::ALL[usize::from(d)]),
            };
            let exit = match stack.get(i + 1) {
                Some(next) => {
                    let d = usize::from(3 - next.entry);
                    let link = self.info[node].link[d];
                    debug_assert!(self.link_free(LinkId(link)));
                    self.links[link as usize] = Some(packet_id);
                    path.links.push(LinkId(link));
                    Port::Mesh(Direction::ALL[d])
                }
                None => Port::Ejection,
            };
            self.routers[node]
                .insert(packet_id, entry, exit)
                .expect("row free: a circuit crosses a router once");
            path.nodes.push(NodeId(f.node));
        }
        self.stamp_nodes(&path.nodes);
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ReservationEntry;

    fn mesh(rows: u16, cols: u16) -> MeshState {
        MeshState::new(Mesh2D::new(rows, cols), rows as usize)
    }

    fn assert_path_valid(m: &MeshState, p: &ReservedPath, src: NodeId, dst: NodeId) {
        assert_eq!(*p.nodes.first().unwrap(), src);
        assert_eq!(*p.nodes.last().unwrap(), dst);
        assert_eq!(p.links.len() + 1, p.nodes.len());
        // Simple path: no repeated routers.
        let set: std::collections::HashSet<_> = p.nodes.iter().collect();
        assert_eq!(set.len(), p.nodes.len(), "circuit must not cross itself");
        // Every link owned by the packet.
        for &l in &p.links {
            assert_eq!(m.link_owner(l), Some(p.packet_id));
        }
    }

    #[test]
    fn scout_finds_minimal_path_in_idle_mesh() {
        let mut m = mesh(8, 8);
        let mut lfsr = Lfsr2::new();
        let src = m.topology().node_at(2, 0);
        let dst = m.topology().node_at(5, 6);
        let (p, out) = m.scout_walk(1, src, dst, &mut lfsr).unwrap();
        assert_path_valid(&m, &p, src, dst);
        assert_eq!(p.hops(), m.topology().manhattan(src, dst));
        assert!(!out.detoured);
        m.release(&p);
        assert_eq!(m.reserved_link_count(), 0);
    }

    #[test]
    fn scout_to_self_is_zero_hops() {
        let mut m = mesh(4, 4);
        let mut lfsr = Lfsr2::new();
        let n = m.topology().node_at(1, 0);
        let (p, _) = m.scout_walk(0, n, n, &mut lfsr).unwrap();
        assert_eq!(p.hops(), 0);
        // Ejection row installed even for the trivial path.
        assert!(m.router(n).entry(0).is_some());
        m.release(&p);
        assert!(m.router(n).entry(0).is_none());
    }

    #[test]
    fn figure8_scenario_non_minimal_route() {
        // The paper's Figure 8: 4×5 mesh, three circuits already reserved,
        // request R from FC3 to F2 must find a non-minimal conflict-free path.
        let m2 = Mesh2D::new(4, 5);
        let mut m = MeshState::new(m2, 4);
        let n = |i: u16| NodeId(i);
        // FC0 → F0 → F1 → F6
        m.reserve_explicit(0, &[n(0), n(1), n(6)]);
        // FC1 → F5 → F6 → F7 → F8
        m.reserve_explicit(1, &[n(5), n(6), n(7), n(8)]);
        // FC2 → F10 → F11 → F12 → F7
        m.reserve_explicit(2, &[n(10), n(11), n(12), n(7)]);

        let mut lfsr = Lfsr2::new();
        let src = n(15); // FC3 attaches at row 3, col 0 = F15
        let dst = n(2);
        let before = m.reserved_link_count();
        let (p, out) = m.scout_walk(3, src, dst, &mut lfsr).expect("a free path exists");
        assert_path_valid(&m, &p, src, dst);
        // Minimal distance is 5 but every minimal path is blocked, so the
        // scout must detour.
        assert!(p.hops() > m.topology().manhattan(src, dst));
        assert!(out.detoured);
        // Other circuits untouched.
        assert_eq!(m.reserved_link_count(), before + p.links.len());
        m.release(&p);
        assert_eq!(m.reserved_link_count(), before);
    }

    #[test]
    fn scout_fails_when_source_is_walled_in() {
        // Reserve every link around the source so no output port is free.
        let m2 = Mesh2D::new(3, 3);
        let mut m = MeshState::new(m2, 3);
        let src = m2.node_at(1, 0);
        // Wall: circuits that consume all three links incident to src.
        m.reserve_explicit(0, &[m2.node_at(0, 0), src, m2.node_at(2, 0)]);
        m.reserve_explicit(1, &[m2.node_at(1, 1), src]);
        let mut lfsr = Lfsr2::new();
        let err = m.scout_walk(2, src, m2.node_at(1, 2), &mut lfsr).unwrap_err();
        assert!(err.steps >= 1);
        // Failure must leave no residue for packet 2.
        assert!(m.router(src).entry(2).is_none());
        for l in 0..m2.link_count() as u32 {
            assert_ne!(m.link_owner(LinkId(l)), Some(2));
        }
    }

    #[test]
    fn concurrent_circuits_do_not_share_links() {
        let mut m = mesh(8, 8);
        let mut lfsr = Lfsr2::new();
        let t = m.topology();
        let mut paths = Vec::new();
        for fc in 0..8u8 {
            let src = t.fc_node(crate::FcId(fc));
            // Eight simultaneous full-row circuits: the mesh must sustain one
            // circuit per controller with zero link sharing.
            let dst = t.node_at(u16::from(fc), 7);
            let (p, _) = m.scout_walk(fc, src, dst, &mut lfsr).expect("mesh has capacity");
            paths.push(p);
        }
        let mut all_links = std::collections::HashSet::new();
        for p in &paths {
            for &l in &p.links {
                assert!(all_links.insert(l), "link {l} reserved by two circuits");
            }
        }
        for p in &paths {
            m.release(p);
        }
        assert_eq!(m.reserved_link_count(), 0);
    }

    #[test]
    fn xy_path_goes_x_then_y() {
        let mut m = mesh(8, 8);
        let t = m.topology();
        let p = m.xy_path(t.node_at(2, 0), t.node_at(5, 3));
        assert_eq!(p.hops(), 6);
        // First three steps move along the row (X), then down the column (Y).
        for i in 0..3 {
            assert_eq!(t.row(p.nodes[i]), 2);
        }
        for i in 3..p.nodes.len() {
            assert_eq!(t.col(p.nodes[i]), 3);
        }
    }

    #[test]
    fn try_reserve_path_is_atomic() {
        let mut m = mesh(4, 4);
        let t = m.topology();
        let p1 = m.xy_path(t.node_at(0, 0), t.node_at(0, 3));
        assert!(m.try_reserve_path(0, &p1));
        // Overlapping XY path cannot be reserved...
        let p2 = m.xy_path(t.node_at(0, 1), t.node_at(0, 2));
        assert!(!m.try_reserve_path(1, &p2));
        // ...and the failed attempt reserved nothing.
        let before: Vec<_> = (0..t.link_count() as u32)
            .map(|l| m.link_owner(LinkId(l)))
            .collect();
        assert!(!before.contains(&Some(1)));
        m.release(&ReservedPath { packet_id: 0, ..p1 });
        assert_eq!(m.reserved_link_count(), 0);
    }

    #[test]
    fn release_clears_router_rows() {
        let mut m = mesh(4, 4);
        let mut lfsr = Lfsr2::new();
        let t = m.topology();
        let (p, _) = m
            .scout_walk(2, t.node_at(2, 0), t.node_at(0, 3), &mut lfsr)
            .unwrap();
        for &n in &p.nodes {
            assert!(m.router(n).entry(2).is_some());
        }
        m.release(&p);
        for &n in &p.nodes {
            assert!(m.router(n).entry(2).is_none());
        }
    }

    #[test]
    fn generation_stamps_track_reservation_changes() {
        let mut m = mesh(4, 4);
        let t = m.topology();
        assert_eq!(m.change_seq(), 0);
        let p = m.reserve_explicit(0, &[t.node_at(1, 0), t.node_at(1, 1), t.node_at(1, 2)]);
        // Installing a circuit stamps exactly its nodes.
        assert_eq!(m.change_seq(), 1);
        for n in [t.node_at(1, 0), t.node_at(1, 1), t.node_at(1, 2)] {
            assert_eq!(m.node_stamp(n), 1);
        }
        assert_eq!(m.node_stamp(t.node_at(0, 0)), 0, "untouched router");
        // A region containing a stamped node is "changed since 0"...
        assert!(m.region_changed_since(0, (1, 1, 0, 2)));
        // ...but not since the stamp itself, and untouched regions never.
        assert!(!m.region_changed_since(1, (1, 1, 0, 2)));
        assert!(!m.region_changed_since(0, (3, 3, 0, 3)));
        // Releasing stamps the same nodes again with a new sequence.
        m.release(&p);
        assert_eq!(m.change_seq(), 2);
        assert!(m.region_changed_since(1, (1, 1, 0, 2)));
        // A failed walk is state-neutral: no stamp moves. Wall in a source
        // and fail a walk out of it.
        let mut m = mesh(3, 3);
        let t = m.topology();
        let src = t.node_at(1, 0);
        m.reserve_explicit(0, &[t.node_at(0, 0), src, t.node_at(2, 0)]);
        m.reserve_explicit(1, &[t.node_at(1, 1), src]);
        let seq = m.change_seq();
        let mut lfsr = Lfsr2::new();
        m.scout_walk(2, src, t.node_at(1, 2), &mut lfsr).unwrap_err();
        assert_eq!(m.change_seq(), seq, "failed walks must not stamp");
    }

    #[test]
    fn successful_walks_stamp_their_path() {
        let mut m = mesh(4, 4);
        let t = m.topology();
        let mut lfsr = Lfsr2::new();
        let (p, _) = m.scout_walk(0, t.node_at(0, 0), t.node_at(0, 3), &mut lfsr).unwrap();
        assert_eq!(m.change_seq(), 1);
        for &n in &p.nodes {
            assert_eq!(m.node_stamp(n), 1);
        }
        m.release(&p);
        assert_eq!(m.change_seq(), 2);
    }

    #[test]
    fn failed_walk_outcome_is_invariant_to_lfsr_phase() {
        // The fast-fail cache's soundness contract: for a cap-free failure
        // over an unchanged mesh region, the verdict, step count, misroute
        // count, and LFSR draw count must not depend on the LFSR phase the
        // walk starts from — that is what lets a fast-fail replay the
        // recorded draw count and keep the register stream bit-identical.
        // Build a deeply-blocked scenario (Figure 8 with the escape column
        // also walled) so the scout advances, wanders, and fails.
        let build = || {
            let m2 = Mesh2D::new(4, 5);
            let mut m = MeshState::new(m2, 4);
            let n = |i: u16| NodeId(i);
            m.reserve_explicit(0, &[n(0), n(1), n(2), n(3), n(4), n(9)]);
            m.reserve_explicit(1, &[n(5), n(6), n(7), n(8)]);
            m.reserve_explicit(2, &[n(10), n(11), n(12), n(13), n(14)]);
            m
        };
        let mut reference: Option<ScoutFailure> = None;
        for phase in 0..3u8 {
            let mut m = build();
            let mut lfsr = Lfsr2::with_seed(phase + 1);
            let before = m.reserved_link_count();
            let fail = m
                .scout_walk(3, NodeId(15), NodeId(4), &mut lfsr)
                .expect_err("destination is fully walled off");
            assert_eq!(m.reserved_link_count(), before, "failure is atomic");
            if fail.cap_pruned {
                continue; // capped walks are excluded from the invariant
            }
            match &reference {
                None => reference = Some(fail),
                Some(r) => {
                    assert_eq!(
                        (r.steps, r.misroutes, r.lfsr_draws, r.advanced, r.extent),
                        (
                            fail.steps,
                            fail.misroutes,
                            fail.lfsr_draws,
                            fail.advanced,
                            fail.extent
                        ),
                        "phase {phase}: cap-free failure must be phase-invariant"
                    );
                }
            }
        }
        let r = reference.expect("at least one cap-free failure");
        assert!(r.advanced, "the scout advanced past the source");
        assert!(r.steps > 1);
    }

    #[test]
    fn failure_extent_covers_every_entered_router() {
        // Wall in the source: the walk never leaves it, so the extent is
        // exactly the source tile.
        let m2 = Mesh2D::new(3, 3);
        let mut m = MeshState::new(m2, 3);
        let src = m2.node_at(1, 0);
        m.reserve_explicit(0, &[m2.node_at(0, 0), src, m2.node_at(2, 0)]);
        m.reserve_explicit(1, &[m2.node_at(1, 1), src]);
        let mut lfsr = Lfsr2::new();
        let fail = m.scout_walk(2, src, m2.node_at(1, 2), &mut lfsr).unwrap_err();
        assert!(!fail.advanced);
        assert_eq!(fail.extent, (1, 1, 0, 0), "source-blocked extent is one tile");
        assert_eq!(fail.lfsr_draws, 0, "no candidates, no draws");
        assert_eq!(fail.misroutes, 0);
    }

    #[test]
    fn downed_links_block_walks_and_stamp_on_both_transitions() {
        let mut m = mesh(4, 4);
        let t = m.topology();
        let mut lfsr = Lfsr2::new();
        let (a, b) = (t.node_at(1, 1), t.node_at(1, 2));
        // Taking the link down stamps both endpoints (cache invalidation).
        assert!(m.set_link_state(a, b, false));
        assert_eq!(m.change_seq(), 1);
        assert!(m.region_changed_since(0, (1, 1, 1, 1)));
        assert!(m.region_changed_since(0, (1, 1, 2, 2)));
        // The scout routes around the dead link instead of using it.
        let (p, out) = m
            .scout_walk(1, t.node_at(1, 0), t.node_at(1, 3), &mut lfsr)
            .expect("path diversity survives one dead link");
        assert!(p.hops() > t.manhattan(t.node_at(1, 0), t.node_at(1, 3)));
        assert!(out.detoured);
        for w in p.nodes.windows(2) {
            let uses_dead_link = (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a);
            assert!(!uses_dead_link);
        }
        m.release(&p);
        // An XY circuit over the dead link is rejected atomically.
        let xy = m.xy_path(t.node_at(1, 0), t.node_at(1, 3));
        assert!(!m.try_reserve_path(0, &xy));
        m.recycle(xy);
        // Repair stamps again and restores minimal routing.
        let seq = m.change_seq();
        assert!(m.set_link_state(b, a, true));
        assert!(m.change_seq() > seq, "repair must stamp too");
        assert!(m.region_changed_since(seq, (1, 1, 1, 2)));
        let (p, out) = m
            .scout_walk(1, t.node_at(1, 0), t.node_at(1, 3), &mut lfsr)
            .unwrap();
        assert_eq!(p.hops(), 3);
        assert!(!out.detoured);
        m.release(&p);
        // Redundant transitions are idempotent: no stamp churn.
        let seq = m.change_seq();
        assert!(m.set_link_state(a, b, true));
        assert_eq!(m.change_seq(), seq);
        // Non-adjacent nodes are rejected.
        assert!(!m.set_link_state(t.node_at(0, 0), t.node_at(2, 2), false));
    }

    #[test]
    fn downed_routers_are_never_entered_and_stamp_their_neighborhood() {
        let mut m = mesh(4, 4);
        let t = m.topology();
        let mut lfsr = Lfsr2::new();
        let dead = t.node_at(1, 1);
        m.set_router_state(dead, false);
        // The down transition stamps the router *and* its neighbors: a walk
        // blocked entering `dead` only recorded the probing neighbor in its
        // extent.
        for n in [dead, t.node_at(0, 1), t.node_at(2, 1), t.node_at(1, 0), t.node_at(1, 2)] {
            assert!(m.node_stamp(n) > 0, "neighborhood of {n} must be stamped");
        }
        let (p, _) = m
            .scout_walk(1, t.node_at(1, 0), t.node_at(1, 3), &mut lfsr)
            .expect("detour around the dead router exists");
        assert!(!p.nodes.contains(&dead));
        m.release(&p);
        // XY circuits crossing the dead router are rejected.
        let xy = m.xy_path(t.node_at(1, 0), t.node_at(1, 3));
        assert!(!m.try_reserve_path(0, &xy));
        m.recycle(xy);
        // A walk *to* the dead router fails without residue.
        let before = m.reserved_link_count();
        m.scout_walk(2, t.node_at(3, 0), dead, &mut lfsr).unwrap_err();
        assert_eq!(m.reserved_link_count(), before);
        // Repair restores direct routing through it.
        m.set_router_state(dead, true);
        let (p, _) = m
            .scout_walk(1, t.node_at(1, 0), t.node_at(1, 3), &mut lfsr)
            .unwrap();
        assert_eq!(p.hops(), 3);
        m.release(&p);
    }

    /// Folds `v` into the FNV-1a hash `h`, little-endian byte by byte.
    fn fold(h: u64, v: u64) -> u64 {
        v.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Everything a failed walk must leave untouched: link owners, router
    /// rows, generation stamps and the change sequence.
    type MeshSnapshot = (Vec<Option<u8>>, Vec<Vec<ReservationEntry>>, Vec<u64>, Vec<u64>, u64);

    fn snapshot(m: &MeshState) -> MeshSnapshot {
        let topo = m.topology();
        (
            (0..topo.link_count() as u32).map(|l| m.link_owner(LinkId(l))).collect(),
            (0..topo.node_count() as u16)
                .map(|n| m.router(NodeId(n)).iter().copied().collect())
                .collect(),
            (0..topo.node_count() as u16).map(|n| m.node_stamp(NodeId(n))).collect(),
            m.row_stamps.clone(),
            m.change_seq(),
        )
    }

    /// One randomized walk for `packet`: random source, destination, LFSR
    /// phase and misroute setting. Folds the outcome into `h`, asserts that
    /// a failure wrote nothing, and returns the reserved path on success.
    fn pinned_walk(
        m: &mut MeshState,
        rng: &mut venice_sim::rng::Xorshift64Star,
        h: &mut u64,
        tally: &mut [u32; 3],
        packet: u8,
    ) -> Option<ReservedPath> {
        let n = m.topology().node_count() as u64;
        let src = NodeId(rng.next_bounded(n) as u16);
        let dst = NodeId(rng.next_bounded(n) as u16);
        let mut lfsr = Lfsr2::with_seed(1 + rng.next_bounded(3) as u8);
        let allow_misroute = rng.next_bool(0.85);
        let before = snapshot(m);
        match m.scout_walk_opts(packet, src, dst, &mut lfsr, allow_misroute) {
            Ok((path, out)) => {
                tally[0] += 1;
                for v in [0, out.steps, out.misroutes, out.lfsr_draws, u32::from(out.detoured)] {
                    *h = fold(*h, u64::from(v));
                }
                for (&node, &link) in path.nodes.iter().zip(path.links.iter().chain([&LinkId(u32::MAX)])) {
                    *h = fold(*h, (u64::from(node.0) << 32) | u64::from(link.0));
                }
                Some(path)
            }
            Err(f) => {
                tally[1] += 1;
                tally[2] += u32::from(f.cap_pruned);
                let (r0, r1, c0, c1) = f.extent;
                for v in [
                    1,
                    u64::from(f.steps),
                    u64::from(f.misroutes),
                    u64::from(f.lfsr_draws),
                    u64::from(f.cap_pruned),
                    u64::from(f.advanced),
                    u64::from(r0) | u64::from(r1) << 16 | u64::from(c0) << 32 | u64::from(c1) << 48,
                ] {
                    *h = fold(*h, v);
                }
                assert_eq!(snapshot(m), before, "a failed walk must write nothing");
                None
            }
        }
    }

    #[test]
    fn randomized_walks_match_the_pinned_hash() {
        // Pins every walk bit for bit (verdict, steps, misroutes, LFSR
        // draws, cap pruning, advanced, extent, and the reserved path) on
        // 8×8, 16×16 and 32×32 meshes with random circuits, downed links and
        // routers, sources, destinations, LFSR phases and misroute settings.
        // The constant was computed on the walk that reserved links as it
        // went; any rewrite of the DFS must reproduce it exactly.
        const PINNED: u64 = 0xade8_7f3f_67b5_e3d6;
        let mut rng = venice_sim::rng::Xorshift64Star::new(0x5C07_u64);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut tally = [0u32; 3];
        for (side, meshes, walks) in [(8u16, 24, 40), (16, 10, 40), (32, 4, 40)] {
            for _ in 0..meshes {
                let topo = Mesh2D::new(side, side);
                let n = topo.node_count() as u64;
                let mut m = MeshState::new(topo, usize::from(side));
                for _ in 0..rng.next_bounded(topo.link_count() as u64 / 8 + 1) {
                    let a = NodeId(rng.next_bounded(n) as u16);
                    let d = Direction::ALL[rng.next_bounded(4) as usize];
                    if let Some(b) = topo.neighbor(a, d) {
                        m.set_link_state(a, b, false);
                    }
                }
                for _ in 0..rng.next_bounded(3) {
                    m.set_router_state(NodeId(rng.next_bounded(n) as u16), false);
                }
                // Every packet but 0 starts with a circuit attempt; then
                // random packets release and walk again, so the walks under
                // test see a churning, congested mesh.
                let mut live: Vec<Option<ReservedPath>> = vec![None];
                for p in 1..side as u8 {
                    live.push(pinned_walk(&mut m, &mut rng, &mut h, &mut tally, p));
                }
                for _ in 0..walks {
                    let p = rng.next_bounded(u64::from(side)) as usize;
                    if let Some(path) = live[p].take() {
                        m.release_owned(path);
                    }
                    live[p] = pinned_walk(&mut m, &mut rng, &mut h, &mut tally, p as u8);
                }
            }
        }
        let [ok, failed, capped] = tally;
        assert!(ok > 0 && failed > 0 && capped > 0, "tally {tally:?}");
        assert_eq!(h, PINNED, "walk hash 0x{h:016x} (ok {ok}, failed {failed}, capped {capped})");
    }

    #[test]
    fn scout_respects_livelock_bound_and_terminates() {
        // Dense random traffic on a small mesh: every walk must terminate
        // (the step-cap assert inside scout_walk enforces the bound).
        let mut m = mesh(4, 4);
        let t = m.topology();
        let mut lfsr = Lfsr2::new();
        let mut rng = venice_sim::rng::Xorshift64Star::new(99);
        let mut live: Vec<ReservedPath> = Vec::new();
        for round in 0..500 {
            if !live.is_empty() && rng.next_bool(0.4) {
                let idx = rng.next_bounded(live.len() as u64) as usize;
                let p = live.swap_remove(idx);
                m.release(&p);
            }
            let fc = (round % 4) as u8;
            if live.iter().any(|p| p.packet_id == fc) {
                continue; // one in-flight circuit per controller
            }
            let src = t.fc_node(crate::FcId(fc));
            let dst = NodeId(rng.next_bounded(16) as u16);
            if let Ok((p, _)) = m.scout_walk(fc, src, dst, &mut lfsr) {
                live.push(p);
            }
        }
        for p in &live {
            m.release(p);
        }
        assert_eq!(m.reserved_link_count(), 0);
    }
}
