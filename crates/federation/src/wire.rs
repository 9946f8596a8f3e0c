//! Wire size of gradient uploads.
//!
//! The simulator keeps everything in-process, so nothing is ever encoded;
//! but the reported per-round upload volume (cost analysis, Fig. 6b) counts
//! what a real deployment would ship in this little-endian layout:
//!
//! ```text
//! u32 item_count
//!   repeated: u32 item_id, u32 dim, dim × f32
//! u8  has_mlp
//!   if 1: u32 layer_count
//!     repeated: u32 rows, u32 cols, rows·cols × f32   (weights)
//!     repeated: u32 len, len × f32                    (biases)
//!   u32 len, len × f32                                (projection)
//! ```

use frs_model::GlobalGradients;

/// Exact byte size of one upload in the layout above, in closed form over
/// the flat item slab and the MLP shapes.
pub fn encoded_size(grads: &GlobalGradients) -> usize {
    // Item count, then per row its id and dim prefixes; the row values
    // themselves are the whole slab.
    let mut size = 4 + 8 * grads.items.ids.len() + 4 * grads.items.vals.len();
    size += 1; // mlp flag
    if let Some(mlp) = &grads.mlp {
        size += 4;
        for w in &mlp.weights {
            size += 8 + 4 * w.rows() * w.cols();
        }
        for b in &mlp.biases {
            size += 4 + 4 * b.len();
        }
        size += 4 + 4 * mlp.projection.len();
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use frs_model::MlpGradients;

    #[test]
    fn encoded_size_is_exact() {
        // MF: two items of dim 3 — 4 (count) + 2 × (4 id + 4 dim + 12
        // values) + 1 (no-MLP flag) = 45 bytes.
        let mut mf = GlobalGradients::new();
        mf.add_item_grad(3, &[1.0, -2.5, 0.125]);
        mf.add_item_grad(17, &[0.0, 4.0, -1.0]);
        assert_eq!(encoded_size(&mf), 45);

        // NCF: one item of dim 2 — 4 + (4 + 4 + 8) + 1 = 21 bytes of item
        // part and flag. MLP layers (6→3) and (3→2), projection 2:
        //   4 (layer count)
        //   + (8 + 4·3·6) + (8 + 4·2·3)   weights: 80 + 32
        //   + (4 + 4·3) + (4 + 4·2)       biases: 16 + 12
        //   + (4 + 4·2)                   projection: 12
        // = 156 bytes, 177 in all.
        let mut ncf = GlobalGradients::new();
        ncf.add_item_grad(5, &[0.5, -0.5]);
        ncf.mlp = Some(MlpGradients::zeros(&[(6, 3), (3, 2)], 2));
        assert_eq!(encoded_size(&ncf), 177);
    }

    #[test]
    fn empty_upload_is_count_and_flag() {
        assert_eq!(encoded_size(&GlobalGradients::new()), 5);
    }
}
