//! Hand-written generate programs shared by the pinned suites.

/// Generate constructs the corpus and the fuzzer reach only partly:
/// fused instances indexed by loop variables (nested and under `if`),
/// `else` arms, bundle ports and elements, and `inst.P` reads.
pub const GENERATE_PROGRAMS: &[(&str, &str)] = &[
    (
        "fused-in-for",
        "comp Chain[W, D]<G: 1>(@[G, G+1] in: W) -> (@[G+D, G+(D+1)] out: W) {
           s[0] := new Delay[W]<G>(in);
           for i in 1..D {
             s[i] := new Delay[W]<G+i>(s[i-1].out);
           }
           out = s[D-1].out;
         }",
    ),
    (
        "fused-nested-for-if",
        "comp Grid[N, W]<G: 1>(@[G, G+1] a[i: N]: W) -> (@[G, G+1] o[i: N]: W) {
           for i in 0..N {
             for j in 0..2 {
               if j == 0 {
                 x[i][j] := new Add[W]<G>(a[i], a[i]);
               } else {
                 x[i][j] := new Sub[W]<G>(x[i][j-1].out, a[i]);
               }
             }
             o[i] = x[i][1].out;
           }
         }",
    ),
    (
        "fused-in-if-else",
        "comp Sel[W, K]<G: 1>(@[G, G+1] l: W, @[G, G+1] r: W) -> (@[G, G+1] out: W) {
           if K >= 2 {
             m[K] := new Add[W]<G>(l, r);
             out = m[K].out;
           } else {
             m[K] := new Xor[W]<G>(l, r);
             out = m[K].out;
           }
         }",
    ),
    (
        "split-instances-and-params",
        "comp Acc[W, some OW = W + W]<G: 2>(@interface[G] go: 1, @[G, G+1] x: W)
             -> (@[G+1, G+2] out: OW) {
           r := new Register[W];
           z := new ZExt[W, OW]<G>(x);
           v := r<G, G+2>(go, x);
           e := new Slice[OW, z.WO - 1, 0]<G>(z.out);
           out = v.out;
         }
         comp Main<G: 2>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G+1, G+2] o: 16) {
           a := new Acc[8]<G>(go, x);
           b := new Acc[a.W]<G>(go, x);
           o = a.out;
         }",
    ),
    (
        "bundle-outputs-and-where",
        "extern comp Pair<G: L-(G+1), L: 1>(@interface[G] en: 1, @[G, G+1] in: 8)
             -> (@[G+1, L] out: 8) where L > G+1, L >= G, G == G;
         comp Fan[N]<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] y[i: 1..N+1]: 8) {
           for i in 1..N+1 { y[i] = x; }
         }
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           f := new Fan[pow2(2)]<G>(x);
           g := new Fan[log2(8) * 2 % 5]<G>(f.y[1]);
           o = g.y[2];
         }",
    ),
];
