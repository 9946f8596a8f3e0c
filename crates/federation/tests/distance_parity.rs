//! Upload-distance parity: the prepared fast path over the upload slabs is
//! **bitwise** equal to the naive per-pair [`upload_squared_distance`].
//!
//! `upload_distance_matrix` is the shared kernel every Krum-family defense
//! consumes, so a single differing bit here would silently change defense
//! selections (and therefore whole experiment reports). Part of the CI
//! `kernel-parity` job; run locally with
//!
//! ```text
//! cargo test --release -p frs-federation --test distance_parity
//! ```

use frs_federation::{upload_distance_matrix, upload_refs, upload_squared_distance};
use frs_model::{GlobalGradients, MlpGradients};
use proptest::prelude::*;

const MLP_SHAPES: [(usize, usize); 2] = [(4, 2), (2, 2)];

/// Raw material for one upload: sparse `(item, gradient)` pairs (duplicate
/// items accumulate, as in a real client round) plus an optional MLP part.
type RawUpload = (Vec<(u32, (f32, f32, f32))>, bool, Vec<(f32, f32)>);

fn upload_strategy() -> impl Strategy<Value = RawUpload> {
    (
        prop::collection::vec((0u32..10, (-5.0f32..5.0, -5.0f32..5.0, -5.0f32..5.0)), 0..7),
        any::<bool>(),
        prop::collection::vec((-2.0f32..2.0, -2.0f32..2.0), 9),
    )
}

fn build_upload(raw: &RawUpload) -> GlobalGradients {
    let (items, with_mlp, mlp_vals) = raw;
    let mut g = GlobalGradients::new();
    for (item, (a, b, c)) in items {
        g.add_item_grad(*item, &[*a, *b, *c]);
    }
    if *with_mlp {
        let mut mlp = MlpGradients::zeros(&MLP_SHAPES, 2);
        // Fill every parameter surface from the generated values so the
        // flattened-MLP distance term is exercised, not just zeros.
        let flat_len = mlp.flatten().len();
        let vals: Vec<f32> = mlp_vals.iter().flat_map(|&(x, y)| [x, y]).collect();
        assert!(vals.len() >= flat_len, "widen mlp_vals for these shapes");
        mlp = mlp.unflatten_like(&vals[..flat_len]);
        g.mlp = Some(mlp);
    }
    g
}

/// The fast kernel's value for the ordered pair `(x, y)`: cell (0, 1) of a
/// two-upload matrix is computed in exactly that argument order.
fn fast_pair(x: &GlobalGradients, y: &GlobalGradients) -> f32 {
    let pair = [x.clone(), y.clone()];
    upload_distance_matrix(&upload_refs(&pair)).get(0, 1)
}

proptest! {
    #[test]
    fn view_distance_is_bitwise_naive(a in upload_strategy(), b in upload_strategy()) {
        let (ua, ub) = (build_upload(&a), build_upload(&b));
        prop_assert_eq!(
            fast_pair(&ua, &ub).to_bits(),
            upload_squared_distance(&ua, &ub).to_bits()
        );
        // And the transpose — the matrix stores each pair once and mirrors.
        prop_assert_eq!(
            fast_pair(&ub, &ua).to_bits(),
            upload_squared_distance(&ub, &ua).to_bits()
        );
    }

    #[test]
    fn distance_matrix_is_bitwise_naive_per_cell(
        raws in prop::collection::vec(upload_strategy(), 0..7)
    ) {
        let uploads: Vec<GlobalGradients> = raws.iter().map(build_upload).collect();
        let matrix = upload_distance_matrix(&upload_refs(&uploads));
        prop_assert_eq!(matrix.n(), uploads.len());
        for i in 0..uploads.len() {
            prop_assert_eq!(matrix.get(i, i).to_bits(), 0.0f32.to_bits());
            for j in 0..uploads.len() {
                if i < j {
                    // Cell (i, j) must hold the naive value computed in the
                    // (i, j) argument order — the order `from_fn` used.
                    let naive = upload_squared_distance(&uploads[i], &uploads[j]);
                    prop_assert_eq!(matrix.get(i, j).to_bits(), naive.to_bits());
                    prop_assert_eq!(matrix.get(j, i).to_bits(), naive.to_bits());
                }
            }
        }
    }

    #[test]
    fn mlp_only_uploads_still_measure_distance(
        vals_a in prop::collection::vec((-2.0f32..2.0, -2.0f32..2.0), 9),
        vals_b in prop::collection::vec((-2.0f32..2.0, -2.0f32..2.0), 9),
    ) {
        // DL-FRS rounds where a client touched no items: the whole distance
        // is the flattened-MLP term.
        let ua = build_upload(&(vec![], true, vals_a));
        let ub = build_upload(&(vec![], true, vals_b));
        let none = build_upload(&(vec![], false, vec![]));
        for (x, y) in [(&ua, &ub), (&ua, &none), (&none, &ub)] {
            prop_assert_eq!(
                fast_pair(x, y).to_bits(),
                upload_squared_distance(x, y).to_bits()
            );
        }
    }
}
