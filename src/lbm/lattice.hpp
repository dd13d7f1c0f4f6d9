#pragma once

/// \file lattice.hpp
/// A single fixed-resolution D3Q19 lattice block with tiled sparse
/// storage. The APR simulation (src/apr) composes two of these: a coarse
/// lattice spanning the whole domain (bulk, whole-blood viscosity) and a
/// fine lattice spanning the moving window (plasma viscosity), following
/// §2.1 and §2.4.1 of the paper.
///
/// Node roles:
///  - Exterior: outside the flow domain, never touched.
///  - Fluid:    collide + stream.
///  - Wall:     solid; neighbours bounce back halfway (optionally moving).
///  - Velocity: Dirichlet velocity node; distributions reset to equilibrium
///              at the prescribed velocity after each streaming step.
///  - Coupling: distributions imposed externally (by the grid coupler) each
///              step; participates in streaming as a source only.
///
/// Storage layout (tiled, §3.5 Table 3 memory budget): the dense index
/// space exposed by idx() is unchanged, but per-node state lives in
/// fixed-size 16^3 *tiles*, allocated only for blocks that hold at least
/// one non-Exterior node. A flat block directory maps
/// `dense block id -> tile slot` in O(1). Slot 0 is a shared immutable
/// "exterior tile" holding the vacant-node defaults (type = Exterior,
/// f = 0, tau = default_tau(), ubc = 0, force = body_force(), rho = 1,
/// u = 0); every absent block's directory entry points at it, so reads
/// never branch on residency. Writers materialize a private tile on the
/// first non-default store; a tile whose last non-Exterior node is
/// re-typed Exterior is released again (when its remaining contents equal
/// the vacant defaults), so voxelization and reclassify_solid sparsify
/// the lattice with no caller changes. In vessel-network domains the
/// overwhelming majority of bounding-box nodes are Exterior, so memory
/// and sweep time scale with the vasculature instead of the box.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/aabb.hpp"
#include "src/common/units.hpp"
#include "src/common/vec3.hpp"
#include "src/lbm/d3q19.hpp"
#include "src/lbm/sweep_plan.hpp"

namespace apr::lbm {

enum class NodeType : std::uint8_t {
  Exterior = 0,
  Fluid = 1,
  Wall = 2,
  Velocity = 3,
  Coupling = 4,
};

/// Collision operator. BGK is the paper's choice (§2.1); TRT (two
/// relaxation times) additionally fixes the bounce-back wall location
/// independent of tau via the "magic" parameter
/// Lambda = (1/omega+ - 1/2)(1/omega- - 1/2) (Ginzburg et al.), provided
/// as an accuracy/stability extension. MRT (multiple relaxation times,
/// d'Humieres Gram-Schmidt basis with Guo forcing transformed to moment
/// space) keeps the per-node s_nu = 1/tau on the viscous stress moments
/// and over-relaxes the ghost moments at fixed rates, which damps the
/// spurious modes that destabilize BGK as tau -> 1/2 (the HemoCell
/// ForcedMRT rationale; see tools/tau_sweep_stability).
enum class CollisionModel : std::uint8_t { Bgk = 0, Trt = 1, Mrt = 2 };

/// Returns true for node types whose distributions may be pulled from
/// during streaming.
constexpr bool is_stream_source(NodeType t) {
  return t == NodeType::Fluid || t == NodeType::Velocity ||
         t == NodeType::Coupling;
}

class Lattice {
 public:
  // --- tile geometry -------------------------------------------------------
  static constexpr int kTileShift = 4;
  static constexpr int kTileSide = 1 << kTileShift;  ///< 16
  static constexpr int kTileNodesShift = 3 * kTileShift;
  static constexpr std::size_t kTileNodes = std::size_t{1}
                                            << kTileNodesShift;  ///< 4096
  static constexpr std::size_t kTileMask = kTileNodes - 1;

  /// Bytes of per-node state a tile stores (f + ftmp + type + tau + ubc +
  /// force + rho + u = 393 B); the basis of tiled_bytes()/dense_bytes().
  /// Node classification lives in the sweep plan, not per node.
  static constexpr std::size_t kNodeBytes =
      2 * kQ * sizeof(double) + sizeof(NodeType) + sizeof(double) +
      3 * sizeof(Vec3) + sizeof(double);

  /// \param nx,ny,nz  node counts
  /// \param origin    physical position of node (0,0,0)
  /// \param dx        physical spacing [m]
  /// \param tau       default relaxation time (per-node override available)
  ///
  /// A fresh lattice is all-Fluid (every tile resident); voxelization
  /// marks the exterior and releases emptied tiles. Call shrink_to_fit()
  /// afterwards to return the freed slots to the allocator.
  Lattice(int nx, int ny, int nz, const Vec3& origin, double dx, double tau);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  std::size_t num_nodes() const { return n_; }

  const Vec3& origin() const { return origin_; }
  double dx() const { return dx_; }

  /// Rebase the lattice at a new origin without touching any per-node
  /// state. Used by the incremental window move together with shift():
  /// the surviving state moves to its new indices and the origin moves to
  /// the new window corner, so physical positions stay consistent.
  void set_origin(const Vec3& origin) { origin_ = origin; }

  /// Physical bounding box of the node centers.
  Aabb bounds() const;

  bool in_domain(int x, int y, int z) const {
    return x >= 0 && x < nx_ && y >= 0 && y < ny_ && z >= 0 && z < nz_;
  }

  std::size_t idx(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * ny_ + y) * nx_ + x;
  }

  Vec3 position(int x, int y, int z) const {
    return origin_ + Vec3{static_cast<double>(x), static_cast<double>(y),
                          static_cast<double>(z)} *
                         dx_;
  }

  /// Continuous lattice coordinate of a physical point (node units).
  Vec3 to_lattice(const Vec3& p) const { return (p - origin_) / dx_; }

  // --- node metadata -------------------------------------------------------
  NodeType type(std::size_t i) const { return type_[addr(i)]; }
  NodeType type(int x, int y, int z) const { return type_[addr(x, y, z)]; }
  void set_type(std::size_t i, NodeType t) {
    int x, y, z;
    decompose(i, x, y, z);
    set_type(x, y, z, t);
  }
  void set_type(int x, int y, int z, NodeType t);

  double tau(std::size_t i) const { return tau_[addr(i)]; }
  void set_tau(std::size_t i, double tau);
  void set_uniform_tau(double tau);

  /// Tau stored by the shared exterior tile (what tau(i) reads at any
  /// node whose tile is not resident). Set by the constructor and
  /// set_uniform_tau(); the explicit setter exists for checkpoint
  /// restore, which must reproduce the vacant-node baseline exactly.
  double default_tau() const { return default_tau_; }
  void set_default_tau(double tau);

  /// Prescribed velocity for Wall (moving wall) and Velocity nodes.
  const Vec3& boundary_velocity(std::size_t i) const { return ubc_[addr(i)]; }
  void set_boundary_velocity(std::size_t i, const Vec3& u);

  /// Whether any prescribed boundary velocity was ever set nonzero (gates
  /// the moving-wall momentum correction and which arrays shift() moves).
  /// The explicit setter exists for checkpoint restore, which must
  /// reproduce the flag exactly even when all stored values are zero.
  bool ubc_nonzero() const { return ubc_nonzero_; }
  void set_ubc_nonzero(bool nonzero) { ubc_nonzero_ = nonzero; }

  // --- distributions -------------------------------------------------------
  double f(int q, std::size_t i) const { return f_[faddr(addr(i), q)]; }
  void set_f(int q, std::size_t i, double v);

  std::array<double, kQ> f_node(std::size_t i) const;
  void set_f_node(std::size_t i, const std::array<double, kQ>& f);

  /// Initialize every non-exterior node to equilibrium at (rho, u).
  void init_equilibrium(double rho, const Vec3& u);

  /// Initialize a single node to equilibrium.
  void init_node_equilibrium(std::size_t i, double rho, const Vec3& u);

  /// Reset one node to the freshly-constructed state: zero distributions,
  /// zero boundary velocity, force = body force, rho = 1, u = 0. Type and
  /// tau are left untouched. Safe to call concurrently on distinct nodes
  /// (a vacant node already holds exactly this state, so the call is a
  /// no-op there and never materializes a tile).
  void reset_node(std::size_t i);

  /// Shift the lattice state by a whole-node displacement: node (x, y, z)
  /// takes the state previously held at (x+sx, y+sy, z+sz). The remap is
  /// tile-granular and in place: resident blocks keep their slots, blocks
  /// the moved-in state lands in take free slots (the pools grow at most
  /// once, by the shortfall), each destination tile gathers its nodes in
  /// parallel, and tiles the move leaves all-default are released. Only
  /// state that cannot be recomputed travels:
  /// distributions, node types, the velocity cache (IBM interpolation
  /// reads it at Wall/Exterior nodes that update_macroscopic() never
  /// rewrites), and prescribed boundary velocities. Per-node tau, forces
  /// and the rho cache are NOT shifted -- they keep their old same-node
  /// values (the window pipeline re-imposes a uniform tau and resets
  /// forces after every move, and rho is unspecified until the next
  /// update_macroscopic()).
  ///
  /// Nodes outside the surviving overlap box -- and only those -- are left
  /// with unspecified distributions/types afterwards; the caller must
  /// re-classify and re-initialize them (see
  /// AprSimulation::try_shift_fine_lattice). Returns the number of nodes
  /// in the overlap box (0 when the shift has no overlap, in which case
  /// nothing is moved).
  std::size_t shift(int sx, int sy, int sz);

  // --- body/IBM force ------------------------------------------------------
  const Vec3& force(std::size_t i) const { return force_[addr(i)]; }
  /// Accumulate an IBM/body force at node i. Forces only accumulate on
  /// resident tiles: spreading into a vacant (all-Exterior) block is
  /// dropped, which matches the dense layout observably -- forces at
  /// Exterior nodes are dead storage (never collided, never serialized)
  /// -- and keeps concurrent spreading race-free (no tile allocation from
  /// worker threads).
  void add_force(std::size_t i, const Vec3& f) {
    const std::size_t a = addr(i);
    if (a >= kTileNodes) force_[a] += f;
  }
  const Vec3& body_force() const { return body_force_; }
  void set_body_force(const Vec3& f);
  /// Reset per-node forces to the constant body force (called by the FSI
  /// loop before each spreading pass).
  void clear_forces();

  // --- macroscopic caches (filled by update_macroscopic) --------------------
  double rho(std::size_t i) const { return rho_[addr(i)]; }
  /// Overwrite one cache entry directly (checkpoint restore; the caches
  /// are genuine state at nodes update_macroscopic() never rewrites).
  void set_rho(std::size_t i, double rho);
  const Vec3& velocity(std::size_t i) const { return u_[addr(i)]; }
  const Vec3& velocity(int x, int y, int z) const {
    return u_[addr(x, y, z)];
  }
  /// Mutable access materializes the node's tile (the reference must be
  /// writable); prefer set_velocity(), which is a no-op for a zero write
  /// into a vacant tile.
  Vec3& mutable_velocity(std::size_t i) { return u_[ensure(i)]; }
  void set_velocity(std::size_t i, const Vec3& u);

  /// Recompute rho and u (with Guo half-force correction) on all
  /// Fluid/Coupling nodes.
  void update_macroscopic();

  /// Same refresh restricted to the half-open index sub-range
  /// [x0,x1) x [y0,y1) x [z0,z1) (clamped to the lattice). Lets callers
  /// that only read the cache in a small region (e.g. window-move
  /// re-initialization interpolating inside the new window box) skip the
  /// full-domain sweep.
  void update_macroscopic_region(int x0, int x1, int y0, int y1, int z0,
                                 int z1);

  /// Trilinearly interpolate the cached velocity field at a physical point.
  /// Out-of-range coordinates are clamped to the lattice.
  Vec3 interpolate_velocity(const Vec3& p) const;

  /// Trilinearly interpolate the cached density field at a physical point,
  /// with the same clamping. Solid nodes contribute their resting rho = 1,
  /// mirroring the zero-velocity contribution of interpolate_velocity.
  /// Used to seed fine-lattice nodes with the local coarse density instead
  /// of a flat rho = 1 (window moves through pressure gradients must not
  /// inject a density step at the exposed slab).
  double interpolate_rho(const Vec3& p) const;

  /// One BGK collide-and-stream step (+Guo forcing, boundary handling),
  /// including the macroscopic-cache refresh.
  void step();

  /// Same step without refreshing the macroscopic cache -- the hot path
  /// for the coupler and FSI loops, which recompute moments only where
  /// they need them.
  void step_no_macro();

  /// Select the segmented row kernels (default): the fused sweep and the
  /// macroscopic refresh run q-outer/lane-inner over the cached
  /// SweepPlan's contiguous fast-Fluid segments. Bit-exact against the
  /// per-node scalar sweep, which is kept as the in-process oracle (see
  /// tests/test_sweep_plan.cpp). The oracle sends every active node
  /// through the generic bounds/type/bounce-back path and reads no node
  /// classification, so the comparison checks the plan's. The toggle
  /// exists for verification and the ablation bench.
  void set_segmented_kernel(bool on) { segmented_ = on; }

  /// Sweep-plan rebuilds performed so far (observability counter; a
  /// rebuild is triggered by any residency or node-type change).
  std::uint64_t plan_rebuilds() const { return plan_rebuilds_; }

  /// The cached sweep plan, rebuilt first if stale (bench/test
  /// introspection).
  const SweepPlan& sweep_plan() {
    ensure_plan();
    return plan_;
  }

  /// Collision operator (default BGK). For TRT, `magic` sets the
  /// free antisymmetric relaxation via Lambda; 3/16 places the halfway
  /// bounce-back wall exactly for plane walls, 1/4 optimizes stability.
  /// MRT ignores `magic` (its ghost-moment rates are the fixed
  /// d3q19.hpp kMrtRates; the viscous rate is the per-node 1/tau).
  void set_collision_model(CollisionModel model, double magic = 3.0 / 16.0);
  CollisionModel collision_model() const { return collision_; }
  double trt_magic() const { return magic_; }

  /// Total number of node collisions performed so far; used for the
  /// compute-cost accounting in the Fig. 6 / Table 2 benches.
  std::uint64_t site_updates() const { return site_updates_; }
  void add_site_updates(std::uint64_t n) { site_updates_ += n; }
  void set_site_updates(std::uint64_t n) { site_updates_ = n; }

  /// Periodic wrap per axis (used by force-driven tube/duct flows).
  void set_periodic(bool px, bool py, bool pz);
  bool periodic(int axis) const { return periodic_[axis]; }

  // --- tiled-storage introspection ----------------------------------------
  /// Number of resident (allocated) tiles.
  std::size_t num_tiles() const { return resident_.size(); }
  /// Number of blocks the bounding box decomposes into (resident or not).
  std::size_t max_tiles() const { return nblocks_; }
  /// Dense block id of the t-th resident tile; resident tiles are always
  /// iterated in ascending block id ("directory order"), which is what
  /// makes fixed-grain tiled reductions worker-count invariant.
  std::size_t resident_block(std::size_t t) const {
    return static_cast<std::size_t>(resident_[t]);
  }
  /// Node coordinates of cell 0 of the t-th resident tile.
  void tile_origin(std::size_t t, int& x0, int& y0, int& z0) const {
    block_coords(static_cast<std::size_t>(resident_[t]), x0, y0, z0);
    x0 <<= kTileShift;
    y0 <<= kTileShift;
    z0 <<= kTileShift;
  }
  /// Per-cell state of the t-th resident tile: kTileNodes entries per
  /// field (cells outside the lattice box are padding, always Exterior);
  /// distributions q-major (direction q at cell c is p[q * kTileNodes + c]).
  const NodeType* tile_types(std::size_t t) const {
    return type_.data() + tile_offset(t);
  }
  const double* tile_f(std::size_t t) const { return &f_[kQ * tile_offset(t)]; }
  const double* tile_tau(std::size_t t) const { return &tau_[tile_offset(t)]; }
  const Vec3* tile_ubc(std::size_t t) const { return &ubc_[tile_offset(t)]; }
  const double* tile_rho(std::size_t t) const { return &rho_[tile_offset(t)]; }
  const Vec3* tile_u(std::size_t t) const { return &u_[tile_offset(t)]; }
  /// Local cell coordinates within a tile.
  static void cell_coords(std::size_t c, int& lx, int& ly, int& lz) {
    lx = static_cast<int>(c) & (kTileSide - 1);
    ly = (static_cast<int>(c) >> kTileShift) & (kTileSide - 1);
    lz = static_cast<int>(c) >> (2 * kTileShift);
  }
  /// Whether node i's tile is resident (vacant nodes read shared defaults).
  bool node_resident(std::size_t i) const { return addr(i) >= kTileNodes; }

  // --- storage-address access (the IBM stencil kernels) --------------------
  /// Storage address of the in-bounds node (x, y, z): tile slot *
  /// kTileNodes + cell, resolved through the block directory without a
  /// division. The caller bounds-checks (x, y, z) first. Vacant nodes
  /// resolve into the shared exterior tile (a < kTileNodes).
  std::size_t storage_addr(int x, int y, int z) const { return addr(x, y, z); }
  NodeType type_at(std::size_t a) const { return type_[a]; }
  const Vec3& velocity_at(std::size_t a) const { return u_[a]; }
  /// Accumulate a force at a resident storage address (a >= kTileNodes).
  void add_force_at(std::size_t a, const Vec3& f) { force_[a] += f; }

  /// Disable (or re-enable) the release of tiles emptied by set_type();
  /// with auto-release off and materialize_all() the lattice behaves as a
  /// dense reference layout (used by the tiled-vs-dense digest tests and
  /// the ablation bench).
  void set_auto_release(bool on) { auto_release_ = on; }
  /// Materialize every tile (dense reference mode).
  void materialize_all();
  /// Compact the slot pools to the resident tiles, returning freed slots
  /// to the allocator (call after voxelization has released tiles).
  void shrink_to_fit();

  /// Allocated bytes of the tiled layout: slot pools (including the
  /// shared exterior tile and any free slots) plus directory/metadata.
  std::size_t tiled_bytes() const;
  /// Bytes the flat dense layout would need for the same bounding box.
  std::size_t dense_bytes() const;
  /// Resident fraction of the block grid (resident tiles / max tiles).
  double fill_fraction() const {
    return nblocks_ == 0 ? 0.0
                         : static_cast<double>(resident_.size()) /
                               static_cast<double>(nblocks_);
  }

 private:
  int nx_;
  int ny_;
  int nz_;
  std::size_t n_;
  Vec3 origin_;
  double dx_;
  bool periodic_[3] = {false, false, false};

  // --- tile directory ------------------------------------------------------
  int tbx_ = 0, tby_ = 0, tbz_ = 0;  ///< block-grid dimensions
  std::size_t nblocks_ = 0;
  std::vector<std::int32_t> dir_;       ///< block id -> slot (0 = exterior)
  std::vector<std::int32_t> resident_;  ///< resident block ids, ascending
  std::vector<std::int32_t> slot_block_;  ///< slot -> block id (-1 = unused)
  std::vector<std::int32_t> nonext_;      ///< slot -> non-Exterior node count
  std::vector<std::int32_t> free_slots_;
  double default_tau_ = 1.0;
  bool auto_release_ = true;

  // --- slot pools (slot-major; slot 0 is the shared exterior tile) ---------
  std::vector<double> f_;     ///< slots * kQ * kTileNodes, q-major per slot
  std::vector<double> ftmp_;  ///< streaming target
  std::vector<NodeType> type_;
  std::vector<double> tau_;
  std::vector<Vec3> ubc_;
  bool ubc_nonzero_ = false;  ///< any prescribed velocity ever set nonzero
  std::vector<Vec3> force_;
  Vec3 body_force_{};
  std::vector<double> rho_;
  std::vector<Vec3> u_;
  std::uint64_t site_updates_ = 0;

  CollisionModel collision_ = CollisionModel::Bgk;
  double magic_ = 3.0 / 16.0;

  // Segmented-kernel state: the per-slot 27-entry neighbour-slot table
  // (tile rim streaming) and the sweep plan, the only node
  // classification. Every change of residency or node types (set_type,
  // shift, materialize/release, shrink_to_fit, checkpoint load) sets
  // plan_dirty_; ensure_plan() then rebuilds both together.
  std::vector<std::int32_t> nbr_;
  SweepPlan plan_;
  bool plan_dirty_ = true;
  bool segmented_ = true;
  std::uint64_t plan_rebuilds_ = 0;

  // Reciprocal magics for decompose() (Lemire-style unsigned division);
  // exact for dividends < 2^32, which covers any practical lattice.
  std::uint64_t magic_nx_ = 0;
  std::uint64_t magic_plane_ = 0;
  bool fastdiv_ = false;

  // --- addressing ----------------------------------------------------------
  std::size_t block_index(int x, int y, int z) const {
    return (static_cast<std::size_t>(z >> kTileShift) * tby_ +
            (y >> kTileShift)) *
               tbx_ +
           (x >> kTileShift);
  }
  void block_coords(std::size_t b, int& bx, int& by, int& bz) const {
    bx = static_cast<int>(b % tbx_);
    by = static_cast<int>((b / tbx_) % tby_);
    bz = static_cast<int>(b / (static_cast<std::size_t>(tbx_) * tby_));
  }
  static std::size_t cell_of(int lx, int ly, int lz) {
    return (static_cast<std::size_t>(lz) << (2 * kTileShift)) |
           (static_cast<std::size_t>(ly) << kTileShift) |
           static_cast<std::size_t>(lx);
  }
  void decompose(std::size_t i, int& x, int& y, int& z) const;

  /// Storage address of node (x, y, z): slot * kTileNodes + cell. Vacant
  /// nodes resolve into the shared exterior tile (slot 0), so reads never
  /// branch; writers must check `a < kTileNodes` (vacant) first.
  std::size_t addr(int x, int y, int z) const {
    return static_cast<std::size_t>(dir_[block_index(x, y, z)]) * kTileNodes +
           cell_of(x & (kTileSide - 1), y & (kTileSide - 1),
                   z & (kTileSide - 1));
  }
  std::size_t addr(std::size_t i) const {
    int x, y, z;
    decompose(i, x, y, z);
    return addr(x, y, z);
  }
  /// Distribution-pool address of direction q at storage address a.
  std::size_t faddr(std::size_t a, int q) const {
    return ((a >> kTileNodesShift) * kQ + q) * kTileNodes + (a & kTileMask);
  }
  std::int32_t tile_slot(std::size_t t) const {
    return dir_[static_cast<std::size_t>(resident_[t])];
  }
  std::size_t tile_offset(std::size_t t) const {
    return static_cast<std::size_t>(tile_slot(t)) * kTileNodes;
  }

  // --- tile lifecycle ------------------------------------------------------
  /// Append n slots holding the vacant defaults; returns the first.
  std::int32_t add_slots(std::size_t n);
  std::int32_t materialize(std::size_t b);
  void release(std::size_t b);
  void reset_slot(std::int32_t s);
  /// True when every node of slot s holds the vacant defaults in the
  /// fields that outlive an all-Exterior tile (tau, ubc, rho, u);
  /// distributions and forces are dead storage at Exterior nodes.
  bool tile_holds_defaults(std::int32_t s) const;
  std::size_t ensure(int x, int y, int z) {
    const std::size_t b = block_index(x, y, z);
    std::int32_t s = dir_[b];
    if (s == 0) s = materialize(b);
    return static_cast<std::size_t>(s) * kTileNodes +
           cell_of(x & (kTileSide - 1), y & (kTileSide - 1),
                   z & (kTileSide - 1));
  }
  std::size_t ensure(std::size_t i) {
    int x, y, z;
    decompose(i, x, y, z);
    return ensure(x, y, z);
  }

  void ensure_plan();

  /// Trilinear interpolation of a per-node pool (u_ or rho_) at a
  /// physical point, clamped to the lattice: the shared body of
  /// interpolate_velocity() and interpolate_rho().
  template <class T>
  T interpolate(const std::vector<T>& field, const Vec3& p) const;

  /// Rim streaming: storage address of the node at local tile coordinates
  /// (lx, ly, lz) in [-1, kTileSide], resolved through the per-slot
  /// 27-entry neighbour table `row`.
  static std::size_t nbr_addr(const std::int32_t* row, int lx, int ly,
                              int lz) {
    const int bx = (lx + kTileSide) >> kTileShift;
    const int by = (ly + kTileSide) >> kTileShift;
    const int bz = (lz + kTileSide) >> kTileShift;
    const std::int32_t s = row[(bz * 3 + by) * 3 + bx];
    return static_cast<std::size_t>(s) * kTileNodes +
           cell_of(lx & (kTileSide - 1), ly & (kTileSide - 1),
                   lz & (kTileSide - 1));
  }

  /// Post-collision populations of the node at storage address a (the
  /// per-node path of both sweeps).
  void collide_node(std::size_t a, std::array<double, kQ>& f) const;

  // Fused collide+stream push-kernel bodies (lattice.cpp): the per-node
  // scalar sweep (the oracle) and the plan-driven segmented sweep. Each
  // collides a node locally and scatters its post-collision populations
  // to their targets, with halfway bounce-back handled at the source.
  // Both return the number of Fluid collisions performed.
  std::uint64_t fused_sweep_scalar();
  std::uint64_t fused_sweep_segmented();
  /// One node of the fused push sweep: Velocity/Coupling self-copy +
  /// outward push, or Fluid collide + scatter. A `fast` node (an x-rim
  /// lane the plan classified interior all-Fluid) routes through the
  /// slot's neighbour-table row `nrow` at local coordinates (lx, ly, lz);
  /// every other node takes the bounds/periodic/bounce-back path, which
  /// reads neither. Shared by both sweeps so the two cannot diverge.
  /// Returns 1 for a Fluid collision, 0 otherwise.
  std::uint64_t fused_scatter_node(const double* f, double* ft,
                                   const std::int32_t* nrow, NodeType tt,
                                   std::size_t a, std::size_t fb, int x,
                                   int y, int z, int lx, int ly, int lz,
                                   bool fast);
  /// Vectorized collide + scatter over one row segment, split into
  /// maximal uniformly-forced lane runs.
  std::uint64_t fused_collide_segment(const double* f, double* ft,
                                      const std::size_t* bases,
                                      std::size_t arow, std::size_t frow,
                                      int lx0, int lx1);
  /// Uniformly-forced lane run of a segment: q-outer, lane-inner BGK/TRT
  /// with the exact per-lane operation order of collide_node.
  void fused_collide_run(const double* f, double* ft,
                         const std::size_t* bases, std::size_t arow,
                         std::size_t frow, int lx0, int lx1, bool forced);

  friend class SweepPlan;
  friend void apply_dirichlet(Lattice&);
};

/// Reset Velocity nodes to equilibrium at their prescribed velocity.
void apply_dirichlet(Lattice& lat);

}  // namespace apr::lbm
