//! Structural composition helpers: build datapath blocks from gates the
//! way a synthesis tool maps RTL onto a standard-cell library.
//!
//! Constant operands are folded at build time (a comparator against a
//! constant costs ~1 gate/bit; a mux whose inputs agree costs nothing) —
//! the same optimisations Synopsys applies to the paper's interval-table
//! ROM ("instead of multiplying … we considered a look-up table … to save
//! area and computation time").

use crate::netlist::{Dff, GateKind, Net, Netlist, GND, VDD};

/// Incremental netlist builder.
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    nl: Netlist,
}

impl NetlistBuilder {
    /// Starts an empty design.
    pub fn new() -> Self {
        NetlistBuilder { nl: Netlist::new() }
    }

    /// Finishes and returns the netlist.
    pub fn finish(self) -> Netlist {
        self.nl
    }

    /// Immutable access to the netlist under construction.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// The constant net for `v`.
    pub fn constant(&self, v: bool) -> Net {
        if v {
            VDD
        } else {
            GND
        }
    }

    /// Declares a primary input.
    pub fn input(&mut self, name: &str) -> Net {
        let n = self.nl.fresh_net();
        self.nl.declare_input(name, n);
        n
    }

    /// Declares a primary output.
    pub fn output(&mut self, name: &str, net: Net) {
        self.nl.declare_output(name, net);
    }

    fn gate(&mut self, kind: GateKind, ins: Vec<Net>) -> Net {
        let out = self.nl.fresh_net();
        self.nl.push_gate(kind, ins, out);
        out
    }

    /// Inverter (folds constants).
    pub fn not(&mut self, a: Net) -> Net {
        match a {
            GND => VDD,
            VDD => GND,
            _ => self.gate(GateKind::Inv, vec![a]),
        }
    }

    /// 2-input AND with constant folding.
    pub fn and2(&mut self, a: Net, b: Net) -> Net {
        match (a, b) {
            (GND, _) | (_, GND) => GND,
            (VDD, x) | (x, VDD) => x,
            _ if a == b => a,
            _ => self.gate(GateKind::And2, vec![a, b]),
        }
    }

    /// 2-input OR with constant folding.
    pub fn or2(&mut self, a: Net, b: Net) -> Net {
        match (a, b) {
            (VDD, _) | (_, VDD) => VDD,
            (GND, x) | (x, GND) => x,
            _ if a == b => a,
            _ => self.gate(GateKind::Or2, vec![a, b]),
        }
    }

    /// 2-input XOR with constant folding.
    pub fn xor2(&mut self, a: Net, b: Net) -> Net {
        match (a, b) {
            (GND, x) | (x, GND) => x,
            (VDD, x) | (x, VDD) => self.not(x),
            _ if a == b => GND,
            _ => self.gate(GateKind::Xor2, vec![a, b]),
        }
    }

    /// 2:1 mux `sel ? b : a` with folding.
    pub fn mux2(&mut self, sel: Net, a: Net, b: Net) -> Net {
        if a == b {
            return a;
        }
        match sel {
            GND => a,
            VDD => b,
            _ => match (a, b) {
                (GND, VDD) => sel,
                (VDD, GND) => self.not(sel),
                (GND, x) => self.and2(sel, x),
                (x, GND) => {
                    let ns = self.not(sel);
                    self.and2(ns, x)
                }
                (VDD, x) => {
                    let ns = self.not(sel);
                    self.or2(ns, x)
                }
                (x, VDD) => self.or2(sel, x),
                _ => self.gate(GateKind::Mux2, vec![sel, a, b]),
            },
        }
    }

    /// 4:1 mux from two select bits (`sel = [s0, s1]`, word index
    /// `s1·2 + s0`).
    pub fn mux4(&mut self, sel: [Net; 2], inputs: [Net; 4]) -> Net {
        let lo = self.mux2(sel[0], inputs[0], inputs[1]);
        let hi = self.mux2(sel[0], inputs[2], inputs[3]);
        self.mux2(sel[1], lo, hi)
    }

    /// Full adder: returns `(sum, carry)` using the XOR3/MAJ3 cell pair a
    /// mapped full adder decomposes into.
    pub fn full_adder(&mut self, a: Net, b: Net, cin: Net) -> (Net, Net) {
        // Fold degenerate cases through the 2-input primitives.
        if cin == GND {
            let sum = self.xor2(a, b);
            let carry = self.and2(a, b);
            return (sum, carry);
        }
        if a == GND {
            let sum = self.xor2(b, cin);
            let carry = self.and2(b, cin);
            return (sum, carry);
        }
        if b == GND {
            let sum = self.xor2(a, cin);
            let carry = self.and2(a, cin);
            return (sum, carry);
        }
        let sum = self.gate(GateKind::Xor3, vec![a, b, cin]);
        let carry = self.gate(GateKind::Maj3, vec![a, b, cin]);
        (sum, carry)
    }

    /// Ripple-carry adder over little-endian words (unequal widths are
    /// zero-extended); result has `max(len)+1` bits.
    pub fn adder(&mut self, a: &[Net], b: &[Net]) -> Vec<Net> {
        let width = a.len().max(b.len());
        let mut out = Vec::with_capacity(width + 1);
        let mut carry = GND;
        for i in 0..width {
            let ai = a.get(i).copied().unwrap_or(GND);
            let bi = b.get(i).copied().unwrap_or(GND);
            let (s, c) = self.full_adder(ai, bi, carry);
            out.push(s);
            carry = c;
        }
        out.push(carry);
        out
    }

    /// Increment (`a + 1`), width preserved plus carry bit.
    pub fn increment(&mut self, a: &[Net]) -> Vec<Net> {
        self.adder(a, &[VDD])
    }

    /// Left shift by `k` (wiring only — zero cost, like real synthesis).
    pub fn shift_left(&mut self, a: &[Net], k: usize) -> Vec<Net> {
        let mut out = vec![GND; k];
        out.extend_from_slice(a);
        out
    }

    /// `a ≥ c` for a constant `c` (little-endian `a`): one AND or OR per
    /// bit after constant propagation.
    pub fn ge_const(&mut self, a: &[Net], c: u64) -> Net {
        if c == 0 {
            return VDD;
        }
        if c >> a.len() != 0 {
            // constant exceeds representable range
            return GND;
        }
        // From LSB to MSB: ge = cbit ? (a & ge) : (a | ge)
        let mut ge = VDD; // empty suffix compares equal → ≥ holds
        for (i, &ai) in a.iter().enumerate() {
            let cbit = c >> i & 1 == 1;
            ge = if cbit {
                self.and2(ai, ge)
            } else {
                self.or2(ai, ge)
            };
        }
        ge
    }

    /// Equality against a constant: XNOR/pass per bit + AND tree.
    pub fn eq_const(&mut self, a: &[Net], c: u64) -> Net {
        if c >> a.len() != 0 {
            return GND;
        }
        let mut terms = Vec::with_capacity(a.len());
        for (i, &ai) in a.iter().enumerate() {
            let cbit = c >> i & 1 == 1;
            terms.push(if cbit { ai } else { self.not(ai) });
        }
        self.and_tree(&terms)
    }

    /// Balanced AND reduction (uses And3 where possible).
    pub fn and_tree(&mut self, terms: &[Net]) -> Net {
        match terms.len() {
            0 => VDD,
            1 => terms[0],
            2 => self.and2(terms[0], terms[1]),
            3 => {
                if terms.contains(&GND) {
                    return GND;
                }
                let filtered: Vec<Net> = terms.iter().copied().filter(|&t| t != VDD).collect();
                match filtered.len() {
                    0 => VDD,
                    1 => filtered[0],
                    2 => self.and2(filtered[0], filtered[1]),
                    _ => self.gate(GateKind::And3, filtered),
                }
            }
            n => {
                let (lo, hi) = terms.split_at(n / 2);
                let l = self.and_tree(lo);
                let r = self.and_tree(hi);
                self.and2(l, r)
            }
        }
    }

    /// ROM word: a 4-entry constant table addressed by 2 select bits —
    /// per output bit a 4:1 mux that constant-folds wherever entries
    /// agree (the paper's pre-computed interval table).
    pub fn rom4(&mut self, sel: [Net; 2], words: [u64; 4], width: usize) -> Vec<Net> {
        (0..width)
            .map(|bit| {
                let vals = words.map(|w| self.constant(w >> bit & 1 == 1));
                self.mux4(sel, vals)
            })
            .collect()
    }

    /// Register bank: `width` DFFs with shared optional enable; returns Q
    /// nets. D nets must be connected afterwards with
    /// [`NetlistBuilder::connect_register`].
    pub fn register(&mut self, width: usize, en: Option<Net>, reset_val: u64) -> RegisterHandle {
        let qs: Vec<Net> = (0..width).map(|_| self.nl.fresh_net()).collect();
        RegisterHandle { qs, en, reset_val }
    }

    /// Connects a register's D inputs, committing the DFF cells.
    ///
    /// # Panics
    ///
    /// Panics when `d` is narrower than the register.
    pub fn connect_register(&mut self, reg: RegisterHandle, d: &[Net]) -> Vec<Net> {
        assert!(d.len() >= reg.qs.len(), "register D bus too narrow");
        for (i, &q) in reg.qs.iter().enumerate() {
            self.nl.push_dff(Dff {
                d: d[i],
                q,
                en: reg.en,
                reset_val: reg.reset_val >> i & 1 == 1,
            });
        }
        reg.qs
    }
}

/// An allocated-but-unconnected register (Q nets usable immediately so
/// feedback loops can be closed).
#[derive(Debug, Clone)]
pub struct RegisterHandle {
    /// Q output nets (little-endian).
    pub qs: Vec<Net>,
    en: Option<Net>,
    reset_val: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    #[test]
    fn adder_matches_arithmetic() {
        let mut b = NetlistBuilder::new();
        let a: Vec<Net> = (0..4).map(|i| b.input(&format!("a{i}"))).collect();
        let c: Vec<Net> = (0..4).map(|i| b.input(&format!("b{i}"))).collect();
        let sum = b.adder(&a, &c);
        for (i, s) in sum.iter().enumerate() {
            b.output(&format!("s{i}"), *s);
        }
        let nl = b.finish();
        assert!(nl.lint().is_empty());
        let mut sim = Simulator::new(nl);
        for x in 0..16u32 {
            for y in 0..16u32 {
                let mut pins: Vec<(String, bool)> = Vec::new();
                for i in 0..4 {
                    pins.push((format!("a{i}"), x >> i & 1 == 1));
                    pins.push((format!("b{i}"), y >> i & 1 == 1));
                }
                let refs: Vec<(&str, bool)> = pins.iter().map(|(s, v)| (s.as_str(), *v)).collect();
                sim.step(&refs);
                let mut got = 0u32;
                for i in 0..5 {
                    if sim.get_output(&format!("s{i}")) {
                        got |= 1 << i;
                    }
                }
                assert_eq!(got, x + y, "{x}+{y}");
            }
        }
    }

    #[test]
    fn ge_const_matches_comparison() {
        for c in [0u64, 1, 5, 9, 15, 16] {
            let mut b = NetlistBuilder::new();
            let a: Vec<Net> = (0..4).map(|i| b.input(&format!("a{i}"))).collect();
            let y = b.ge_const(&a, c);
            b.output("y", y);
            let mut sim = Simulator::new(b.finish());
            for x in 0..16u64 {
                let pins: Vec<(String, bool)> =
                    (0..4).map(|i| (format!("a{i}"), x >> i & 1 == 1)).collect();
                let refs: Vec<(&str, bool)> = pins.iter().map(|(s, v)| (s.as_str(), *v)).collect();
                sim.step(&refs);
                assert_eq!(sim.get_output("y"), x >= c, "x={x} c={c}");
            }
        }
    }

    #[test]
    fn eq_const_matches_equality() {
        let mut b = NetlistBuilder::new();
        let a: Vec<Net> = (0..5).map(|i| b.input(&format!("a{i}"))).collect();
        let y = b.eq_const(&a, 19);
        b.output("y", y);
        let mut sim = Simulator::new(b.finish());
        for x in 0..32u64 {
            let pins: Vec<(String, bool)> =
                (0..5).map(|i| (format!("a{i}"), x >> i & 1 == 1)).collect();
            let refs: Vec<(&str, bool)> = pins.iter().map(|(s, v)| (s.as_str(), *v)).collect();
            sim.step(&refs);
            assert_eq!(sim.get_output("y"), x == 19, "x={x}");
        }
    }

    #[test]
    fn rom4_returns_selected_word() {
        let words = [7u64, 12, 1, 15];
        let mut b = NetlistBuilder::new();
        let s0 = b.input("s0");
        let s1 = b.input("s1");
        let out = b.rom4([s0, s1], words, 4);
        for (i, o) in out.iter().enumerate() {
            b.output(&format!("y{i}"), *o);
        }
        let mut sim = Simulator::new(b.finish());
        #[allow(clippy::needless_range_loop)] // `sel` is also the selector value
        for sel in 0..4usize {
            sim.step(&[("s0", sel & 1 == 1), ("s1", sel >> 1 & 1 == 1)]);
            let mut got = 0u64;
            for i in 0..4 {
                if sim.get_output(&format!("y{i}")) {
                    got |= 1 << i;
                }
            }
            assert_eq!(got, words[sel], "sel={sel}");
        }
    }

    #[test]
    fn constant_folding_produces_no_gates_for_trivial_logic() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        assert_eq!(b.and2(a, VDD), a);
        assert_eq!(b.and2(a, GND), GND);
        assert_eq!(b.or2(a, GND), a);
        assert_eq!(b.xor2(a, GND), a);
        assert_eq!(b.mux2(GND, a, VDD), a);
        assert_eq!(b.netlist().cell_count(), 0);
    }

    #[test]
    fn register_closes_feedback_loops() {
        // toggle flip-flop: q <= !q
        let mut b = NetlistBuilder::new();
        let reg = b.register(1, None, 0);
        let q = reg.qs[0];
        let nq = b.not(q);
        let qs = b.connect_register(reg, &[nq]);
        b.output("q", qs[0]);
        let mut sim = Simulator::new(b.finish());
        let mut seen = Vec::new();
        for _ in 0..4 {
            sim.step(&[]);
            seen.push(sim.get_output("q"));
        }
        assert_eq!(seen, vec![true, false, true, false]);
    }
}
