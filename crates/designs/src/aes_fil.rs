//! AES-128 as *Filament source*: the same cipher as the gate-level
//! `pipelinec::aes` netlist, but routed through the whole compiler —
//! parse, timeline check, lowering, and netlist elaboration — instead of
//! being hand-built as a netlist.
//!
//! [`source`] emits a fully unrolled `R`-round encryption core at one
//! cycle per round: the 16 state bytes enter as a bundle, each round is a
//! combinational SubBytes/ShiftRows/MixColumns/AddRoundKey network built
//! from stdlib cells (`SBox`, `ShlConst`, `Slice`, `Mux`, `Xor`) and a
//! `Delay` rank, and the round keys ride `Delay` chains to the cycle that
//! consumes them. The generated program is differential-tested against
//! the `pipelinec::aes::aes_golden` software model (and, at `R = 10`, the
//! FIPS-197 vector; `crates/pipelinec/tests/aes_fil.rs`) and pinned in the
//! golden expansion corpus.

use std::fmt::Write;

/// The top component name [`source`]`(rounds)` generates.
pub fn top_name(rounds: u32) -> String {
    format!("AesFil{rounds}")
}

/// Emits the fully unrolled `rounds`-round AES core.
///
/// Interface (all widths 8):
///
/// * `st[b: 0..16]` — the whitened state (caller applies `⊕ K0`), byte
///   `b` in FIPS column-major order, consumed at `G`.
/// * `key[j: 0..16*rounds]` — round keys K1…Kr, round-major then
///   byte-major, all consumed at `G`.
/// * `ct[b: 0..16]` — the ciphertext, `rounds` cycles later.
///
/// Like the FIPS reduced-round test ciphers, MixColumns runs on every
/// round but the last, so `rounds = 10` is exactly AES-128 encryption
/// (over a pre-expanded key bus).
///
/// # Panics
///
/// Panics unless `1 <= rounds <= 10`.
pub fn source(rounds: u32) -> String {
    assert!((1..=10).contains(&rounds), "AES-128 has at most 10 rounds");
    let r_total = rounds as usize;
    let nk = 16 * r_total;
    let top = top_name(rounds);
    let mut b = String::new();
    writeln!(b, "comp {top}<G: 1>(").unwrap();
    writeln!(b, "  @[G, G+1] st[b: 0..16]: 8,").unwrap();
    writeln!(b, "  @[G, G+1] key[j: 0..{nk}]: 8").unwrap();
    let done = r_total + 1;
    writeln!(b, ") -> (@[G+{rounds}, G+{done}] ct[b: 0..16]: 8) {{").unwrap();

    // Round keys: byte `16r + i` is consumed at `G+r`, so it rides an
    // r-deep Delay chain off the bundle port.
    let mut key_at: Vec<String> = (0..nk).map(|j| format!("key[{j}]")).collect();
    for (j, port) in key_at.iter_mut().enumerate() {
        let r = j / 16;
        for s in 0..r {
            writeln!(b, "  kd{j}_{s} := new Delay[8]<G+{s}>({port});").unwrap();
            *port = format!("kd{j}_{s}.out");
        }
    }

    let mut state: Vec<String> = (0..16).map(|i| format!("st[{i}]")).collect();
    for r in 0..r_total {
        // SubBytes.
        let subbed: Vec<String> = (0..16)
            .map(|i| {
                writeln!(b, "  sb{r}_{i} := new SBox<G+{r}>({});", state[i]).unwrap();
                format!("sb{r}_{i}.out")
            })
            .collect();
        // ShiftRows: s'[row + 4col] = s[row + 4((col + row) mod 4)].
        let mut shifted = vec![String::new(); 16];
        for row in 0..4 {
            for col in 0..4 {
                shifted[row + 4 * col] = subbed[row + 4 * ((col + row) % 4)].clone();
            }
        }
        // MixColumns on every round but the last.
        let mixed: Vec<String> = if r < r_total - 1 {
            let mut out = vec![String::new(); 16];
            for c in 0..4 {
                let a: Vec<&String> = (0..4).map(|row| &shifted[row + 4 * c]).collect();
                // xtime (GF(2⁸) ×2): (a << 1) ⊕ (a[7] ? 0x1b : 0).
                let x2: Vec<String> = (0..4)
                    .map(|k| {
                        writeln!(b, "  xs{r}_{c}_{k} := new ShlConst[8, 1]<G+{r}>({});", a[k])
                            .unwrap();
                        writeln!(b, "  xm{r}_{c}_{k} := new Slice[8, 7, 7]<G+{r}>({});", a[k])
                            .unwrap();
                        writeln!(
                            b,
                            "  xp{r}_{c}_{k} := new Mux[8]<G+{r}>(xm{r}_{c}_{k}.out, 0, 27);"
                        )
                        .unwrap();
                        writeln!(
                            b,
                            "  x2{r}_{c}_{k} := new Xor[8]<G+{r}>(xs{r}_{c}_{k}.out, xp{r}_{c}_{k}.out);"
                        )
                        .unwrap();
                        format!("x2{r}_{c}_{k}.out")
                    })
                    .collect();
                let x3: Vec<String> = (0..4)
                    .map(|k| {
                        writeln!(b, "  x3{r}_{c}_{k} := new Xor[8]<G+{r}>({}, {});", x2[k], a[k])
                            .unwrap();
                        format!("x3{r}_{c}_{k}.out")
                    })
                    .collect();
                // Each output byte is a 4-way XOR tree.
                let rows: [[&str; 4]; 4] = [
                    [&x2[0], &x3[1], a[2], a[3]],
                    [a[0], &x2[1], &x3[2], a[3]],
                    [a[0], a[1], &x2[2], &x3[3]],
                    [&x3[0], a[1], a[2], &x2[3]],
                ];
                for (k, term) in rows.iter().enumerate() {
                    writeln!(
                        b,
                        "  mu{r}_{c}_{k} := new Xor[8]<G+{r}>({}, {});",
                        term[0], term[1]
                    )
                    .unwrap();
                    writeln!(
                        b,
                        "  mv{r}_{c}_{k} := new Xor[8]<G+{r}>({}, {});",
                        term[2], term[3]
                    )
                    .unwrap();
                    writeln!(
                        b,
                        "  mc{r}_{c}_{k} := new Xor[8]<G+{r}>(mu{r}_{c}_{k}.out, mv{r}_{c}_{k}.out);"
                    )
                    .unwrap();
                    out[k + 4 * c] = format!("mc{r}_{c}_{k}.out");
                }
            }
            out
        } else {
            shifted
        };
        // AddRoundKey with K(r+1), then one pipeline Delay per byte.
        state = (0..16)
            .map(|i| {
                writeln!(
                    b,
                    "  ak{r}_{i} := new Xor[8]<G+{r}>({}, {});",
                    mixed[i],
                    key_at[16 * r + i]
                )
                .unwrap();
                writeln!(b, "  dl{r}_{i} := new Delay[8]<G+{r}>(ak{r}_{i}.out);").unwrap();
                format!("dl{r}_{i}.out")
            })
            .collect();
    }
    for (i, port) in state.iter().enumerate() {
        writeln!(b, "  ct[{i}] = {port};").unwrap();
    }
    writeln!(b, "}}").unwrap();
    b
}
