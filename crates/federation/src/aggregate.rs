//! Server-side aggregation — the defense hook.
//!
//! The paper's protocol updates each item embedding as
//! `v_j ← v_j − η · Agg({∇v_j^i | u_i ∈ U^r, v_j ∈ D_i})` and, for DL-FRS,
//! the MLP parameters with the same `Agg`. With no defense, `Agg` is a plain
//! sum; robust defenses (crate `frs-defense`) replace it.
//!
//! The contract: [`Aggregator::aggregate`] receives *every* upload of the
//! round — benign and poisonous alike, the server cannot tell them apart —
//! in deterministic (client-id) order, and returns the single combined
//! gradient set the update applies. Defenses differ in granularity: some
//! filter whole uploads (Krum, NormBound), some reduce coordinate-wise per
//! item ([`gather_item_rows`] is the helper for those).
//!
//! Rules read every upload through an [`UploadRef`]: the rows come straight
//! out of the upload's flat [`SparseRows`] slab, and an item shard of a
//! [`ShardedAggregator`] is a list of row positions, not a copy.

use frs_linalg::{vector, DistanceMatrix};
use frs_model::{GlobalGradients, MlpGradients, SparseRows};

/// Pluggable aggregation rule over one round's uploads.
pub trait Aggregator: Send + Sync {
    /// Combines all uploads of a round into the applied update. `uploads` may
    /// be empty (no client produced gradients), in which case the result
    /// should be empty too.
    fn aggregate(&self, uploads: &[GlobalGradients]) -> GlobalGradients {
        self.aggregate_refs(&upload_refs(uploads))
    }

    /// The rule itself, over borrowed uploads: whole ones, or the row
    /// subsets one shard of a [`ShardedAggregator`] owns.
    fn aggregate_refs(&self, uploads: &[UploadRef<'_>]) -> GlobalGradients;

    /// Display name for experiment tables.
    fn name(&self) -> &'static str;

    /// Serializable snapshot of aggregator state, for mid-scenario
    /// checkpointing. Every builtin aggregates statelessly (`aggregate`
    /// takes `&self`), so the `Value::Null` default is the norm; a custom
    /// defense with interior-mutable history overrides both hooks.
    fn checkpoint_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Overlays a snapshot captured by [`Aggregator::checkpoint_state`].
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        if state.is_null() {
            Ok(())
        } else {
            Err(format!(
                "aggregator {} holds no restorable state but checkpoint carries {}",
                self.name(),
                state.kind()
            ))
        }
    }
}

/// One client upload as an aggregation rule reads it: all of a
/// [`GlobalGradients`], or the subset of its item rows one shard owns, plus
/// (optionally) its MLP part. Rows are borrowed from the upload's slab.
#[derive(Debug, Clone, Copy)]
pub struct UploadRef<'a> {
    items: &'a SparseRows,
    /// Positions of the selected rows in `items`, ascending; `None` selects
    /// every row.
    rows: Option<&'a [u32]>,
    mlp: Option<&'a MlpGradients>,
    dim: usize,
}

impl<'a> UploadRef<'a> {
    /// The whole upload.
    pub fn new(upload: &'a GlobalGradients) -> Self {
        UploadRef {
            items: &upload.items,
            rows: None,
            mlp: upload.mlp.as_ref(),
            dim: upload.items.dim(),
        }
    }

    /// The rows at `positions` (ascending positions in this upload's slab),
    /// without the MLP part.
    fn restrict(&self, positions: &'a [u32]) -> Self {
        UploadRef {
            rows: Some(positions),
            mlp: None,
            ..*self
        }
    }

    /// Number of item rows.
    pub fn len(&self) -> usize {
        self.rows.map_or(self.items.len(), <[u32]>::len)
    }

    /// True when there are no item rows (the MLP part may still be present).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slab position of the `k`-th selected row.
    fn pos(&self, k: usize) -> usize {
        self.rows.map_or(k, |p| p[k] as usize)
    }

    /// Item id of the `k`-th row (ids ascend with `k`).
    pub fn id(&self, k: usize) -> u32 {
        self.items.ids[self.pos(k)]
    }

    /// Gradient of the `k`-th row.
    pub fn row(&self, k: usize) -> &'a [f32] {
        let p = self.pos(k);
        &self.items.vals[p * self.dim..(p + 1) * self.dim]
    }

    /// `(id, row)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &'a [f32])> + '_ {
        (0..self.len()).map(|k| (self.id(k), self.row(k)))
    }

    /// The MLP part, when this reference carries one.
    pub fn mlp(&self) -> Option<&'a MlpGradients> {
        self.mlp
    }

    /// An owned copy of the referenced rows and MLP part.
    pub fn to_gradients(&self) -> GlobalGradients {
        let mut out = GlobalGradients::new();
        out.items.ids.reserve(self.len());
        out.items.vals.reserve(self.len() * self.dim);
        for (id, row) in self.iter() {
            out.items.push(id, row);
        }
        out.mlp = self.mlp.cloned();
        out
    }

    /// Global L2 norm (item rows + MLP).
    pub fn norm(&self) -> f32 {
        let mut sq = 0.0f32;
        for (_, grad) in self.iter() {
            sq += frs_linalg::dot(grad, grad);
        }
        if let Some(mlp) = self.mlp {
            let n = mlp.l2_norm();
            sq += n * n;
        }
        sq.sqrt()
    }
}

/// Whole-upload references for a round, in upload order.
pub fn upload_refs(uploads: &[GlobalGradients]) -> Vec<UploadRef<'_>> {
    uploads.iter().map(UploadRef::new).collect()
}

/// The undefended baseline: plain sum (paper Section III-A step 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct SumAggregator;

impl Aggregator for SumAggregator {
    fn aggregate_refs(&self, uploads: &[UploadRef<'_>]) -> GlobalGradients {
        sum_uploads(uploads)
    }

    fn name(&self) -> &'static str {
        "NoDefense"
    }
}

/// Item-sharded wrapper around any aggregation rule.
///
/// Uploads are sparse — a client touches only its local items — but
/// whole-upload rules (the Krum family) still compare rounds in the full
/// upload space, and coordinate-wise rules group every row of the round.
/// At million-client round widths that is one huge working set. Sharding
/// splits the item space by `item % shards` and runs the inner rule
/// independently per shard over only the rows that shard owns (row
/// positions into each upload's slab — no row is copied), shrinking the
/// per-invocation working set and bounding the distance matrices; MLP
/// gradients (dense, unsharded by nature) are aggregated in one extra pass
/// of their own.
///
/// Determinism and parity (pinned by `sharded_parity` in the CI
/// `kernel-parity` job):
/// - `shards == 1` delegates outright — bitwise-identical to the bare rule.
/// - Coordinate-wise rules (Sum/Median/TrimmedMean) are bitwise-identical
///   to the dense path at **any** shard count: per-item gathering is
///   unchanged by partitioning the item space.
/// - Whole-upload rules (Krum/MultiKrum/Bulyan) select per shard at
///   `shards > 1` — deliberately a different (finer-grained) defense, not a
///   drifted implementation of the same one.
pub struct ShardedAggregator {
    inner: Box<dyn Aggregator>,
    shards: usize,
}

impl ShardedAggregator {
    /// Wraps `inner`, splitting the item space into `shards` residue
    /// classes. `shards` must be in `1..=u32::MAX`.
    pub fn new(inner: Box<dyn Aggregator>, shards: usize) -> Self {
        assert!(shards >= 1, "shards must be ≥ 1");
        assert!(
            u32::try_from(shards).is_ok(),
            "shards must fit the u32 item space"
        );
        Self { inner, shards }
    }

    /// Shard count this wrapper was built with.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl Aggregator for ShardedAggregator {
    fn aggregate_refs(&self, uploads: &[UploadRef<'_>]) -> GlobalGradients {
        if self.shards <= 1 {
            return self.inner.aggregate_refs(uploads);
        }
        let shards = u32::try_from(self.shards).expect("checked in new");
        // Item pass: per shard, present each upload's rows in that residue
        // class (uploads with no rows there drop out of the shard entirely).
        // Output supports are disjoint across shards.
        let mut parts: Vec<SparseRows> = Vec::with_capacity(self.shards);
        let mut positions: Vec<u32> = Vec::new();
        let mut spans: Vec<(usize, usize, usize)> = Vec::new();
        for s in 0..shards {
            positions.clear();
            spans.clear();
            for (u, upload) in uploads.iter().enumerate() {
                let start = positions.len();
                for k in 0..upload.len() {
                    if upload.id(k) % shards == s {
                        let pos =
                            u32::try_from(upload.pos(k)).expect("row positions index u32 ids");
                        positions.push(pos);
                    }
                }
                if positions.len() > start {
                    spans.push((u, start, positions.len()));
                }
            }
            let shard_refs: Vec<UploadRef<'_>> = spans
                .iter()
                .map(|&(u, a, b)| uploads[u].restrict(&positions[a..b]))
                .collect();
            parts.push(self.inner.aggregate_refs(&shard_refs).items);
        }
        let mut out = GlobalGradients::new();
        let mut order: Vec<(u32, usize, usize)> = parts
            .iter()
            .enumerate()
            .flat_map(|(p, part)| part.ids.iter().enumerate().map(move |(k, &id)| (id, p, k)))
            .collect();
        order.sort_unstable();
        for (id, p, k) in order {
            out.items.push(id, parts[p].row(k));
        }
        // MLP pass: the dense part aggregates once, over exactly the uploads
        // that carry one.
        let mlp_refs: Vec<UploadRef<'_>> = uploads
            .iter()
            .filter(|u| u.mlp.is_some())
            .map(|u| UploadRef {
                rows: Some(&[]),
                ..*u
            })
            .collect();
        if !mlp_refs.is_empty() {
            out.mlp = self.inner.aggregate_refs(&mlp_refs).mlp;
        }
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn checkpoint_state(&self) -> serde::Value {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// A round's item rows grouped per item: ids ascending, each group's rows in
/// upload order (the client-id order the server established). The building
/// block for per-item reductions (sums, Median, TrimmedMean).
pub struct ItemGroups<'a> {
    ids: Vec<u32>,
    /// Group `g` is `rows[bounds[g]..bounds[g + 1]]`.
    bounds: Vec<usize>,
    rows: Vec<&'a [f32]>,
    /// Upload index of every row.
    owners: Vec<usize>,
}

impl<'a> ItemGroups<'a> {
    /// Number of distinct items.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no upload carried an item row.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Item id of group `g`.
    pub fn id(&self, g: usize) -> u32 {
        self.ids[g]
    }

    /// Rows of group `g`, in upload order.
    pub fn rows(&self, g: usize) -> &[&'a [f32]] {
        &self.rows[self.bounds[g]..self.bounds[g + 1]]
    }

    /// Upload index of each row of group `g`.
    pub fn owners(&self, g: usize) -> &[usize] {
        &self.owners[self.bounds[g]..self.bounds[g + 1]]
    }

    /// Folds every group with `reduce` into one output row per item.
    pub fn reduce(&self, mut reduce: impl FnMut(usize) -> Vec<f32>) -> SparseRows {
        let mut out = SparseRows::new();
        for g in 0..self.len() {
            out.push(self.id(g), &reduce(g));
        }
        out
    }
}

/// Groups the item rows of `uploads` per item (see [`ItemGroups`]).
pub fn gather_item_rows<'a>(uploads: &[UploadRef<'a>]) -> ItemGroups<'a> {
    let total: usize = uploads.iter().map(UploadRef::len).sum::<usize>();
    // (id, sequence) keys: sorting them orders rows by item and, within an
    // item, by sequence — which is upload order.
    let mut keys: Vec<(u32, u32)> = Vec::with_capacity(total);
    let mut flat: Vec<(&'a [f32], usize)> = Vec::with_capacity(total);
    for (u, upload) in uploads.iter().enumerate() {
        for (id, row) in upload.iter() {
            let seq = u32::try_from(flat.len()).expect("a round holds < 2^32 item rows");
            keys.push((id, seq));
            flat.push((row, u));
        }
    }
    keys.sort_unstable();
    let mut groups = ItemGroups {
        ids: Vec::new(),
        bounds: Vec::new(),
        rows: Vec::with_capacity(total),
        owners: Vec::with_capacity(total),
    };
    for (id, seq) in keys {
        if groups.ids.last() != Some(&id) {
            groups.ids.push(id);
            groups.bounds.push(groups.rows.len());
        }
        let (row, owner) = flat[seq as usize];
        groups.rows.push(row);
        groups.owners.push(owner);
    }
    groups.bounds.push(groups.rows.len());
    groups
}

/// `Σ_u weights[u] · upload_u` over item rows and MLP parts, accumulated per
/// item in upload order: each item's first row enters as a scaled copy, later
/// rows add in by `axpy` — the exact float sequence of folding the uploads
/// one by one with [`GlobalGradients::axpy`], without its per-upload inserts.
pub fn weighted_sum(uploads: &[UploadRef<'_>], weights: &[f32]) -> GlobalGradients {
    assert_eq!(uploads.len(), weights.len(), "one weight per upload");
    let groups = gather_item_rows(uploads);
    let mut out = GlobalGradients::new();
    let mut acc: Vec<f32> = Vec::new();
    for g in 0..groups.len() {
        let (rows, owners) = (groups.rows(g), groups.owners(g));
        acc.clear();
        acc.extend_from_slice(rows[0]);
        vector::scale(&mut acc, weights[owners[0]]);
        for (row, &owner) in rows[1..].iter().zip(&owners[1..]) {
            vector::axpy(weights[owner], row, &mut acc);
        }
        out.items.push(groups.id(g), &acc);
    }
    for (upload, &w) in uploads.iter().zip(weights) {
        if let Some(mlp) = upload.mlp {
            match &mut out.mlp {
                Some(m) => m.axpy(w, mlp),
                None => {
                    let mut m = mlp.clone();
                    m.scale(w);
                    out.mlp = Some(m);
                }
            }
        }
    }
    out
}

/// Sums a set of uploads item-wise and MLP-wise.
pub fn sum_uploads(uploads: &[UploadRef<'_>]) -> GlobalGradients {
    weighted_sum(uploads, &vec![1.0; uploads.len()])
}

/// Squared L2 distance between two *whole uploads*, treating items absent
/// from one side as zero vectors and including the flattened MLP part.
/// Krum-family defenses compare uploads in this space. This is the naive
/// per-pair reference; [`upload_distance_matrix`] is the fast path.
pub fn upload_squared_distance(a: &GlobalGradients, b: &GlobalGradients) -> f32 {
    let mut total = 0.0f32;
    for (item, ga) in a.items.iter() {
        match b.items.get(item) {
            Some(gb) => total += frs_linalg::squared_l2_distance(ga, gb),
            None => total += frs_linalg::dot(ga, ga),
        }
    }
    for (item, gb) in b.items.iter() {
        if !a.items.contains(item) {
            total += frs_linalg::dot(gb, gb);
        }
    }
    match (&a.mlp, &b.mlp) {
        (Some(ma), Some(mb)) => {
            let fa = ma.flatten();
            let fb = mb.flatten();
            total += frs_linalg::squared_l2_distance(&fa, &fb);
        }
        (Some(m), None) | (None, Some(m)) => {
            let f = m.flatten();
            total += frs_linalg::dot(&f, &f);
        }
        (None, None) => {}
    }
    total
}

/// Per-upload state the pairwise kernel reuses: the selected ids and row
/// slices laid out contiguously, each row's self-dot `⟨g,g⟩`, and the MLP
/// part flattened once with its own self-dot. Building it once per upload
/// moves every per-row and per-MLP cost out of the O(n²) pairwise phase;
/// what remains per pair is a sorted-merge scan over two id lists and the
/// blocked distance kernels, reading rows straight from the slabs.
struct Prepared<'a> {
    ids: Vec<u32>,
    rows: Vec<&'a [f32]>,
    self_dots: Vec<f32>,
    mlp_flat: Option<Vec<f32>>,
    mlp_self_dot: f32,
}

impl<'a> Prepared<'a> {
    fn new(upload: &UploadRef<'a>) -> Self {
        let (ids, rows): (Vec<u32>, Vec<&'a [f32]>) = upload.iter().unzip();
        let self_dots = rows.iter().map(|g| frs_linalg::dot_blocked(g, g)).collect();
        let mlp_flat = upload.mlp.map(MlpGradients::flatten);
        let mlp_self_dot = mlp_flat
            .as_ref()
            .map_or(0.0, |f| frs_linalg::dot_blocked(f, f));
        Prepared {
            ids,
            rows,
            self_dots,
            mlp_flat,
            mlp_self_dot,
        }
    }
}

/// [`upload_squared_distance`] over prepared uploads.
///
/// Bitwise-identical to the naive function: the accumulation visits `a`'s
/// items in ascending id order (shared item → blocked squared distance,
/// exclusive item → precomputed self-dot), then `b`'s exclusive items in
/// ascending id order, then the MLP part — exactly the naive order, with each
/// term produced by a kernel that is itself bitwise-equal to its scalar
/// reference. The `kernel-parity` CI job pins this with a proptest suite.
fn prepared_squared_distance(a: &Prepared<'_>, b: &Prepared<'_>) -> f32 {
    let mut total = 0.0f32;
    let mut j = 0usize;
    for (idx, &id) in a.ids.iter().enumerate() {
        while j < b.ids.len() && b.ids[j] < id {
            j += 1;
        }
        if j < b.ids.len() && b.ids[j] == id {
            total += frs_linalg::squared_distance_blocked(a.rows[idx], b.rows[j]);
        } else {
            total += a.self_dots[idx];
        }
    }
    let mut i = 0usize;
    for (jdx, &id) in b.ids.iter().enumerate() {
        while i < a.ids.len() && a.ids[i] < id {
            i += 1;
        }
        if !(i < a.ids.len() && a.ids[i] == id) {
            total += b.self_dots[jdx];
        }
    }
    match (&a.mlp_flat, &b.mlp_flat) {
        (Some(fa), Some(fb)) => total += frs_linalg::squared_distance_blocked(fa, fb),
        (Some(_), None) => total += a.mlp_self_dot,
        (None, Some(_)) => total += b.mlp_self_dot,
        (None, None) => {}
    }
    total
}

/// The round's full pairwise-distance matrix in upload-distance space,
/// computed once through the prepared kernel. Krum, Multi-Krum, and Bulyan
/// all consume this one matrix; Bulyan additionally deactivates rows as it
/// prunes (see [`DistanceMatrix::deactivate`]).
pub fn upload_distance_matrix(uploads: &[UploadRef<'_>]) -> DistanceMatrix {
    let prepared: Vec<Prepared<'_>> = uploads.iter().map(Prepared::new).collect();
    DistanceMatrix::from_fn(uploads.len(), |i, j| {
        prepared_squared_distance(&prepared[i], &prepared[j])
    })
}

/// Global L2 norm of one upload (items + MLP).
pub fn upload_norm(upload: &GlobalGradients) -> f32 {
    UploadRef::new(upload).norm()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upload(pairs: &[(u32, Vec<f32>)]) -> GlobalGradients {
        let mut g = GlobalGradients::new();
        for (item, grad) in pairs {
            g.add_item_grad(*item, grad);
        }
        g
    }

    #[test]
    fn sum_aggregator_sums_disjoint_and_overlapping() {
        let u1 = upload(&[(1, vec![1.0, 0.0]), (2, vec![2.0, 2.0])]);
        let u2 = upload(&[(2, vec![-1.0, 1.0])]);
        let out = SumAggregator.aggregate(&[u1, u2]);
        assert_eq!(out.items[1], [1.0, 0.0]);
        assert_eq!(out.items[2], [1.0, 3.0]);
        assert!(out.mlp.is_none());
    }

    #[test]
    fn gather_groups_by_item() {
        let u1 = upload(&[(1, vec![1.0]), (2, vec![2.0])]);
        let u2 = upload(&[(2, vec![3.0])]);
        let uploads = vec![u1, u2];
        let groups = gather_item_rows(&upload_refs(&uploads));
        assert_eq!(groups.len(), 2);
        assert_eq!((groups.id(0), groups.rows(0).len()), (1, 1));
        assert_eq!((groups.id(1), groups.rows(1).len()), (2, 2));
        assert_eq!(groups.rows(1), [&[2.0f32][..], &[3.0][..]]);
        assert_eq!(groups.owners(1), [0, 1]);
    }

    #[test]
    fn mlp_summation_via_axpy() {
        let mut u1 = GlobalGradients::new();
        let mut m1 = MlpGradients::zeros(&[(2, 1)], 1);
        m1.projection[0] = 1.0;
        u1.mlp = Some(m1);
        let mut u2 = GlobalGradients::new();
        let mut m2 = MlpGradients::zeros(&[(2, 1)], 1);
        m2.projection[0] = 2.0;
        u2.mlp = Some(m2);
        let out = SumAggregator.aggregate(&[u1, u2]);
        assert_eq!(out.mlp.unwrap().projection[0], 3.0);
    }

    #[test]
    fn empty_uploads_produce_empty_update() {
        let out = SumAggregator.aggregate(&[]);
        assert!(out.is_empty());
    }

    #[test]
    fn upload_distance_handles_disjoint_support() {
        let a = upload(&[(1, vec![3.0, 4.0])]);
        let b = upload(&[(2, vec![1.0, 0.0])]);
        // Disjoint: ‖a‖² + ‖b‖² = 25 + 1.
        assert!((upload_squared_distance(&a, &b) - 26.0).abs() < 1e-5);
        // Identity.
        assert_eq!(upload_squared_distance(&a, &a), 0.0);
    }

    #[test]
    fn upload_distance_symmetric() {
        let a = upload(&[(1, vec![1.0]), (3, vec![2.0])]);
        let b = upload(&[(1, vec![-1.0]), (2, vec![0.5])]);
        assert_eq!(
            upload_squared_distance(&a, &b),
            upload_squared_distance(&b, &a)
        );
    }

    #[test]
    fn upload_norm_covers_items_and_mlp() {
        let mut u = upload(&[(1, vec![3.0, 4.0])]);
        assert!((upload_norm(&u) - 5.0).abs() < 1e-6);
        let mut m = MlpGradients::zeros(&[(2, 1)], 1);
        m.projection[0] = 12.0;
        u.mlp = Some(m);
        assert!((upload_norm(&u) - 13.0).abs() < 1e-5);
    }
}
