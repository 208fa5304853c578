//! Property tests for hierarchical elaboration: flattening preserves
//! behavior and resource counts for randomly generated adder-tree
//! hierarchies.

use calyx_lite::{Component, Program};
use fil_bits::Value;
use proptest::prelude::*;
use rtl_sim::{CellKind, Sim};

/// Builds a `Program` with `depth` levels of nesting: each level's
/// component adds its input to a constant and delegates to the next.
fn nested_program(depth: u32, constants: &[u64]) -> Program {
    let mut p = Program::new();
    for level in 0..depth {
        let mut c = Component::new(format!("level{level}"));
        c.add_input("x", 16);
        c.add_output("y", 16);
        c.add_primitive("add", CellKind::Add { width: 16 });
        c.assign(("add", "left"), "x");
        c.assign(
            ("add", "right"),
            Value::from_u64(16, constants[level as usize]),
        );
        if level + 1 < depth {
            c.add_subcomponent("inner", format!("level{}", level + 1));
            c.assign(("inner", "x"), ("add", "out"));
            c.assign("y", ("inner", "y"));
        } else {
            c.assign("y", ("add", "out"));
        }
        p.add_component(c);
    }
    p
}

proptest! {
    /// A depth-k chain of +c_i wrappers computes x + Σ c_i, and flattening
    /// yields exactly k adder cells.
    #[test]
    fn nesting_flattens_correctly(
        depth in 1u32..8,
        constants in prop::collection::vec(0u64..1000, 8),
        x in 0u64..30000,
    ) {
        let p = nested_program(depth, &constants);
        let netlist = p.elaborate("level0").unwrap();
        let adders = netlist
            .cells()
            .iter()
            .filter(|c| matches!(c.kind, CellKind::Add { .. }))
            .count();
        prop_assert_eq!(adders, depth as usize);

        let mut sim = Sim::new(&netlist).unwrap();
        sim.poke_by_name("x", Value::from_u64(16, x));
        sim.settle().unwrap();
        let want = (x + constants[..depth as usize].iter().sum::<u64>()) & 0xffff;
        prop_assert_eq!(sim.peek_by_name("y").to_u64(), want);
    }

    /// Elaborated netlists always validate structurally.
    #[test]
    fn elaborated_netlists_validate(depth in 1u32..8, constants in prop::collection::vec(0u64..1000, 8)) {
        let p = nested_program(depth, &constants);
        let netlist = p.elaborate("level0").unwrap();
        prop_assert!(netlist.validate().is_ok());
        // And the signal namespace is collision-free by construction:
        // every signal is reachable by its hierarchical name.
        for s in netlist.signals() {
            prop_assert_eq!(
                netlist.signal_by_name(&s.name).map(|id| &netlist.signal(id).name),
                Some(&s.name)
            );
        }
    }
}
