//! Gradient containers for the shared (global) model parameters.
//!
//! A client's upload is sparse over items — only items in its local round
//! dataset `D_i` (or, for attackers, the target items) carry gradients — plus,
//! for DL-FRS, dense MLP gradients. [`GlobalGradients`] is both the client
//! upload format and the server-side accumulator; its item part is one flat
//! [`SparseRows`] slab.

use frs_linalg::{vector, Matrix};
use serde::{Deserialize, Serialize};

/// Gradients of the NCF interaction parameters (`W_l`, `b_l`, `h` of Eq. 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpGradients {
    pub weights: Vec<Matrix>,
    pub biases: Vec<Vec<f32>>,
    pub projection: Vec<f32>,
}

impl MlpGradients {
    /// Zero gradients matching the given layer shapes and projection size.
    pub fn zeros(shapes: &[(usize, usize)], projection_len: usize) -> Self {
        Self {
            weights: shapes.iter().map(|&(i, o)| Matrix::zeros(o, i)).collect(),
            biases: shapes.iter().map(|&(_, o)| vec![0.0; o]).collect(),
            projection: vec![0.0; projection_len],
        }
    }

    /// `self += alpha * other`, shape-checked.
    pub fn axpy(&mut self, alpha: f32, other: &MlpGradients) {
        assert_eq!(self.weights.len(), other.weights.len());
        for (w, ow) in self.weights.iter_mut().zip(&other.weights) {
            w.axpy_matrix(alpha, ow);
        }
        for (b, ob) in self.biases.iter_mut().zip(&other.biases) {
            vector::axpy(alpha, ob, b);
        }
        vector::axpy(alpha, &other.projection, &mut self.projection);
    }

    /// Multiplies every gradient by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for w in &mut self.weights {
            vector::scale(w.as_mut_slice(), alpha);
        }
        for b in &mut self.biases {
            vector::scale(b, alpha);
        }
        vector::scale(&mut self.projection, alpha);
    }

    /// Global L2 norm over all parameters (for NormBound-style clipping).
    pub fn l2_norm(&self) -> f32 {
        let mut sq = 0.0f32;
        for w in &self.weights {
            let n = w.frobenius_norm();
            sq += n * n;
        }
        for b in &self.biases {
            let n = vector::l2_norm(b);
            sq += n * n;
        }
        let n = vector::l2_norm(&self.projection);
        sq += n * n;
        sq.sqrt()
    }

    /// Clips the *global* norm to `max_norm`; returns the scaling applied.
    pub fn clip_l2_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.l2_norm();
        if norm > max_norm && norm > 0.0 {
            let factor = max_norm / norm;
            self.scale(factor);
            factor
        } else {
            1.0
        }
    }

    /// Flattens all parameters into one vector (Krum-style defenses compare
    /// whole uploads in a single Euclidean space).
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for w in &self.weights {
            out.extend_from_slice(w.as_slice());
        }
        for b in &self.biases {
            out.extend_from_slice(b);
        }
        out.extend_from_slice(&self.projection);
        out
    }

    /// Rebuilds gradients from a flat vector laid out by [`Self::flatten`],
    /// using `self` as the shape template. Panics on length mismatch.
    pub fn unflatten_like(&self, flat: &[f32]) -> MlpGradients {
        let mut offset = 0usize;
        let mut take = |len: usize| {
            let s = &flat[offset..offset + len];
            offset += len;
            s.to_vec()
        };
        let weights: Vec<Matrix> = self
            .weights
            .iter()
            .map(|w| Matrix::from_vec(w.rows(), w.cols(), take(w.rows() * w.cols())))
            .collect();
        let biases: Vec<Vec<f32>> = self.biases.iter().map(|b| take(b.len())).collect();
        let projection = take(self.projection.len());
        assert_eq!(offset, flat.len(), "flat gradient length mismatch");
        MlpGradients {
            weights,
            biases,
            projection,
        }
    }
}

/// Sparse per-item rows in one CSR-style slab: `ids` strictly ascending,
/// `vals` holding one `dim`-long row per id back to back
/// (`vals.len() == ids.len() × dim`).
///
/// This is the one gradient layout from client to apply: clients accumulate
/// into it, aggregation rules read rows straight out of the slab, and the
/// model update walks it. Ascending ids make iteration — and therefore
/// server-side aggregation — deterministic regardless of upload order. The
/// fields are public because an upload is untrusted input: the server
/// re-checks the invariants before aggregating (`GlobalModel::check_upload`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SparseRows {
    pub ids: Vec<u32>,
    pub vals: Vec<f32>,
}

/// Rows reserved on a slab's first push (see [`SparseRows::push`]).
const INITIAL_ROWS: usize = 8;

impl SparseRows {
    /// No rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Row width (0 when there are no rows).
    pub fn dim(&self) -> usize {
        self.vals.len().checked_div(self.ids.len()).unwrap_or(0)
    }

    /// The `k`-th row (in ascending id order).
    pub fn row(&self, k: usize) -> &[f32] {
        let dim = self.dim();
        &self.vals[k * dim..(k + 1) * dim]
    }

    /// The row stored for item `id`, if any.
    pub fn get(&self, id: u32) -> Option<&[f32]> {
        self.ids.binary_search(&id).ok().map(|k| self.row(k))
    }

    /// Whether item `id` has a row.
    pub fn contains(&self, id: u32) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// The rows in ascending id order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f32> {
        self.vals.chunks_exact(self.dim().max(1))
    }

    /// `(id, row)` pairs in ascending id order.
    pub fn iter(&self) -> SparseRowsIter<'_> {
        self.ids.iter().copied().zip(self.rows())
    }

    /// Appends a row for an id above every stored one.
    pub fn push(&mut self, id: u32, row: &[f32]) {
        assert!(
            self.ids.last().is_none_or(|&last| id > last),
            "SparseRows::push ids must ascend"
        );
        self.check_width(row);
        if self.ids.capacity() == 0 {
            // A client upload touches a handful of items: start with room
            // for several rows rather than regrowing on each of the first.
            self.ids.reserve(INITIAL_ROWS);
            self.vals.reserve(INITIAL_ROWS * row.len());
        }
        self.ids.push(id);
        self.vals.extend_from_slice(row);
    }

    /// Accumulates `row` into item `id`'s slot, inserting it when absent.
    /// Repeated adds to one id sum in call order.
    pub fn add(&mut self, id: u32, row: &[f32]) {
        if self.ids.last().is_none_or(|&last| id > last) {
            return self.push(id, row);
        }
        self.check_width(row);
        let dim = row.len();
        match self.ids.binary_search(&id) {
            Ok(k) => vector::add_assign(&mut self.vals[k * dim..(k + 1) * dim], row),
            Err(k) => {
                self.ids.insert(k, id);
                self.vals.extend_from_slice(row);
                self.vals[k * dim..].rotate_right(dim);
            }
        }
    }

    /// Panics unless `row` has the width of the stored rows.
    fn check_width(&self, row: &[f32]) {
        assert_eq!(
            row.len() * self.ids.len(),
            self.vals.len(),
            "SparseRows row width"
        );
    }

    /// Multiplies every row by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        vector::scale(&mut self.vals, alpha);
    }
}

/// Iterator over `(id, row)` pairs of a [`SparseRows`].
pub type SparseRowsIter<'a> =
    std::iter::Zip<std::iter::Copied<std::slice::Iter<'a, u32>>, std::slice::ChunksExact<'a, f32>>;

impl<'a> IntoIterator for &'a SparseRows {
    type Item = (u32, &'a [f32]);
    type IntoIter = SparseRowsIter<'a>;

    fn into_iter(self) -> SparseRowsIter<'a> {
        self.iter()
    }
}

impl std::ops::Index<u32> for SparseRows {
    type Output = [f32];

    /// The row for item `id`; panics when absent.
    fn index(&self, id: u32) -> &[f32] {
        self.get(id)
            .unwrap_or_else(|| panic!("no row for item {id}"))
    }
}

/// A full gradient upload (or aggregate) for the global model: sparse item
/// rows plus optional MLP gradients.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GlobalGradients {
    pub items: SparseRows,
    pub mlp: Option<MlpGradients>,
}

impl GlobalGradients {
    /// Empty upload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates `grad` into item `j`'s slot.
    pub fn add_item_grad(&mut self, item: u32, grad: &[f32]) {
        self.items.add(item, grad);
    }

    /// `self += alpha * other` over both item and MLP parts: shared items
    /// accumulate `alpha · row`, items only in `other` enter as scaled copies.
    pub fn axpy(&mut self, alpha: f32, other: &GlobalGradients) {
        let mut scaled = Vec::new();
        for (item, grad) in &other.items {
            scaled.clear();
            scaled.extend_from_slice(grad);
            vector::scale(&mut scaled, alpha);
            self.items.add(item, &scaled);
        }
        if let Some(omlp) = &other.mlp {
            match &mut self.mlp {
                Some(m) => m.axpy(alpha, omlp),
                None => {
                    let mut m = omlp.clone();
                    m.scale(alpha);
                    self.mlp = Some(m);
                }
            }
        }
    }

    /// Multiplies everything by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        self.items.scale(alpha);
        if let Some(m) = &mut self.mlp {
            m.scale(alpha);
        }
    }

    /// Number of items carrying a gradient.
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// True when there is nothing to upload.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty() && self.mlp.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mlp_grads() -> MlpGradients {
        let mut g = MlpGradients::zeros(&[(4, 2), (2, 2)], 2);
        g.weights[0].row_mut(0)[0] = 1.0;
        g.biases[1][1] = 2.0;
        g.projection[0] = 3.0;
        g
    }

    #[test]
    fn mlp_zeros_shapes() {
        let g = MlpGradients::zeros(&[(4, 2), (2, 3)], 3);
        assert_eq!(g.weights[0].rows(), 2);
        assert_eq!(g.weights[0].cols(), 4);
        assert_eq!(g.biases[1].len(), 3);
        assert_eq!(g.projection.len(), 3);
    }

    #[test]
    fn mlp_axpy_and_scale() {
        let mut a = mlp_grads();
        let b = mlp_grads();
        a.axpy(2.0, &b);
        assert_eq!(a.weights[0].row(0)[0], 3.0);
        assert_eq!(a.biases[1][1], 6.0);
        a.scale(0.5);
        assert_eq!(a.projection[0], 4.5);
    }

    #[test]
    fn mlp_norm_and_clip() {
        let mut g = mlp_grads();
        let norm = g.l2_norm();
        assert!((norm - (1.0f32 + 4.0 + 9.0).sqrt()).abs() < 1e-6);
        g.clip_l2_norm(1.0);
        assert!((g.l2_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn mlp_flatten_length() {
        let g = MlpGradients::zeros(&[(4, 2), (2, 3)], 3);
        assert_eq!(g.flatten().len(), 8 + 6 + 2 + 3 + 3);
    }

    #[test]
    fn mlp_flatten_roundtrip() {
        let g = mlp_grads();
        let flat = g.flatten();
        let back = g.unflatten_like(&flat);
        assert_eq!(g, back);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn unflatten_wrong_length_panics() {
        let g = mlp_grads();
        let mut flat = g.flatten();
        flat.push(0.0);
        g.unflatten_like(&flat);
    }

    #[test]
    fn item_grads_accumulate() {
        let mut g = GlobalGradients::new();
        g.add_item_grad(5, &[1.0, 2.0]);
        g.add_item_grad(5, &[0.5, 0.5]);
        g.add_item_grad(2, &[1.0, 0.0]);
        assert_eq!(g.items[5], [1.5, 2.5]);
        assert_eq!(g.n_items(), 2);
        assert_eq!(g.items.ids, vec![2, 5]);
        assert_eq!(g.items.vals, vec![1.0, 0.0, 1.5, 2.5]);
    }

    #[test]
    fn axpy_merges_disjoint_items() {
        let mut a = GlobalGradients::new();
        a.add_item_grad(1, &[1.0]);
        let mut b = GlobalGradients::new();
        b.add_item_grad(2, &[3.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.items[1], [1.0]);
        assert_eq!(a.items[2], [6.0]);
    }

    #[test]
    fn iteration_order_is_item_order() {
        let mut g = GlobalGradients::new();
        g.add_item_grad(9, &[0.0]);
        g.add_item_grad(3, &[0.0]);
        g.add_item_grad(7, &[0.0]);
        assert_eq!(g.items.ids, vec![3, 7, 9]);
    }

    #[test]
    fn out_of_order_adds_keep_the_slab_sorted() {
        let mut rows = SparseRows::new();
        for (id, v) in [
            (7u32, 1.0f32),
            (2, 2.0),
            (9, 3.0),
            (2, 0.5),
            (4, 4.0),
            (7, -1.0),
        ] {
            rows.add(id, &[v, -v]);
        }
        assert_eq!(rows.ids, vec![2, 4, 7, 9]);
        assert_eq!(rows.vals, vec![2.5, -2.5, 4.0, -4.0, 0.0, 0.0, 3.0, -3.0]);
        assert_eq!(rows.dim(), 2);
        assert_eq!(rows.get(4), Some(&[4.0, -4.0][..]));
        assert!(rows.get(5).is_none() && !rows.contains(5) && rows.contains(9));
        let pairs: Vec<(u32, Vec<f32>)> = rows.iter().map(|(id, r)| (id, r.to_vec())).collect();
        assert_eq!(pairs[3], (9, vec![3.0, -3.0]));
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn push_rejects_descending_ids() {
        let mut rows = SparseRows::new();
        rows.push(3, &[1.0]);
        rows.push(3, &[1.0]);
    }

    #[test]
    fn empty_checks() {
        let g = GlobalGradients::new();
        assert!(g.is_empty());
        let mut g2 = GlobalGradients::new();
        g2.mlp = Some(MlpGradients::zeros(&[(2, 1)], 1));
        assert!(!g2.is_empty());
    }
}
