//! Waveform capture: ASCII waveform diagrams (like the paper's figures) and
//! VCD dumps for external viewers.

use crate::netlist::SignalId;
use crate::sim::Sim;
use fil_bits::Value;
use std::fmt::Write as _;

/// Records selected signals every cycle and renders them as an ASCII
/// waveform diagram in the style of the paper's Figures 1 and 4.
///
/// # Examples
///
/// ```
/// use fil_bits::Value;
/// use rtl_sim::{AsciiWave, CellKind, Netlist, Sim};
///
/// let mut n = Netlist::new("t");
/// let a = n.add_input("a", 8);
/// let mut w = AsciiWave::new();
/// w.watch("a", a);
/// let mut sim = Sim::new(&n)?;
/// for i in 0..3 {
///     sim.poke(a, Value::from_u64(8, i));
///     sim.settle()?;
///     w.sample(&sim);
///     sim.tick()?;
/// }
/// assert!(w.render().contains('a'));
/// # Ok::<(), rtl_sim::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct AsciiWave {
    signals: Vec<(String, SignalId)>,
    samples: Vec<Vec<Value>>,
}

impl AsciiWave {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a signal to the waveform under a display name.
    pub fn watch(&mut self, name: impl Into<String>, sig: SignalId) {
        self.signals.push((name.into(), sig));
        self.samples.push(Vec::new());
    }

    /// Samples all watched signals from a settled simulation.
    pub fn sample(&mut self, sim: &Sim<'_>) {
        for (i, (_, sig)) in self.signals.iter().enumerate() {
            self.samples[i].push(sim.peek(*sig));
        }
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.samples.first().map_or(0, Vec::len)
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the waveform. One-bit signals draw as pulse trains
    /// (`▔` high / `▁` low); wider signals print hex values per cycle,
    /// blanked when the value repeats.
    pub fn render(&self) -> String {
        let cycles = self.len();
        let name_w = self
            .signals
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0)
            .max(5);
        // Column width per cycle: widest hex rendering among all samples.
        let col = self
            .samples
            .iter()
            .flatten()
            .map(|v| format!("{v:x}").len())
            .max()
            .unwrap_or(1)
            .max(2);
        let mut out = String::new();
        // Header: cycle numbers.
        write!(out, "{:>name_w$} |", "cycle").unwrap();
        for c in 0..cycles {
            write!(out, " {c:>col$}").unwrap();
        }
        out.push('\n');
        writeln!(out, "{}", "-".repeat(name_w + 2 + cycles * (col + 1))).unwrap();
        for (i, (name, _)) in self.signals.iter().enumerate() {
            write!(out, "{name:>name_w$} |").unwrap();
            let row = &self.samples[i];
            let one_bit = row.iter().all(|v| v.width() == 1);
            let mut prev: Option<&Value> = None;
            for v in row {
                if one_bit {
                    let c = if v.as_bool() { '\u{2594}' } else { '\u{2581}' };
                    write!(out, " {}", c.to_string().repeat(col)).unwrap();
                } else if prev == Some(v) {
                    write!(out, " {:>col$}", "\u{00b7}").unwrap();
                } else {
                    write!(out, " {:>col$}", format!("{v:x}")).unwrap();
                }
                prev = Some(v);
            }
            out.push('\n');
        }
        out
    }
}

/// Streams a Value Change Dump (VCD) file of selected signals.
///
/// The output conforms to IEEE 1364 VCD and can be opened in GTKWave.
#[derive(Debug)]
pub struct VcdWriter {
    signals: Vec<(String, SignalId, u32)>,
    body: String,
    last: Vec<Option<Value>>,
    time: u64,
    header_done: bool,
}

impl VcdWriter {
    /// Creates a writer for the given module name.
    pub fn new() -> Self {
        VcdWriter {
            signals: Vec::new(),
            body: String::new(),
            last: Vec::new(),
            time: 0,
            header_done: false,
        }
    }

    /// Registers a signal before the first sample.
    ///
    /// # Panics
    ///
    /// Panics if called after sampling has begun.
    pub fn watch(&mut self, name: impl Into<String>, sig: SignalId, width: u32) {
        assert!(!self.header_done, "watch() must precede sample()");
        self.signals.push((name.into(), sig, width));
        self.last.push(None);
    }

    fn ident(i: usize) -> String {
        // VCD identifier: printable ASCII starting from '!'.
        let mut s = String::new();
        let mut i = i + 1;
        while i > 0 {
            s.push(char::from(
                u8::try_from(33 + (i - 1) % 94).expect("printable ASCII"),
            ));
            i = (i - 1) / 94;
        }
        s
    }

    /// Samples all watched signals from a settled simulation.
    pub fn sample(&mut self, sim: &Sim<'_>) {
        if !self.header_done {
            self.body
                .push_str("$timescale 1ns $end\n$scope module top $end\n");
            for (i, (name, _, width)) in self.signals.iter().enumerate() {
                let id = Self::ident(i);
                self.body
                    .push_str(&format!("$var wire {width} {id} {name} $end\n"));
            }
            self.body.push_str("$upscope $end\n$enddefinitions $end\n");
            self.header_done = true;
        }
        let mut changes = String::new();
        for (i, (_, sig, _)) in self.signals.iter().enumerate() {
            let v = sim.peek(*sig);
            if self.last[i].as_ref() != Some(&v) {
                let id = Self::ident(i);
                if v.width() == 1 {
                    changes.push_str(&format!("{}{id}\n", if v.as_bool() { 1 } else { 0 }));
                } else {
                    changes.push_str(&format!("b{v:b} {id}\n"));
                }
                self.last[i] = Some(v);
            }
        }
        if !changes.is_empty() {
            self.body.push_str(&format!("#{}\n{changes}", self.time));
        }
        self.time += 1;
    }

    /// The VCD file contents accumulated so far.
    pub fn finish(self) -> String {
        self.body
    }
}

impl Default for VcdWriter {
    fn default() -> Self {
        Self::new()
    }
}
