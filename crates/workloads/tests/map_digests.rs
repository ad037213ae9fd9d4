//! Pins the structure of `Mapper::map`'s output on the Table-1 suite,
//! dp96 and `layered_datapath(40, 20)`, for both mapping goals. The
//! subject-graph clean-up (`strash`, `sweep`) may get faster, never
//! different: the digests are those the checked `substitute_stem` path
//! produced.

use library::{standard_library, MapGoal, Mapper};
use netlist::Netlist;

/// Circuit, `structural_digest` of its area-mapped and delay-mapped
/// netlists.
const DIGESTS: [(&str, u64, u64); 19] = [
    ("Z5xp1", 0x6aac9ed5cc507377, 0x9f4fa468a6422d86),
    ("term1", 0x3a62e634adc60e1a, 0x295e93f835fa27aa),
    ("9sym", 0xe4613ec13be9831b, 0x2b30f5aac785ea8a),
    ("C432", 0x45033385b6eb18f6, 0x0a24baeaa2adaf5f),
    ("C499", 0xc87f8372aa79c548, 0x53383fa60314b723),
    ("C1355", 0xd372b427565b8d06, 0x5ea61c167c232353),
    ("C880", 0x260a34edd01dd0e1, 0x58f02558868bcffc),
    ("C1908", 0x6ab4378abeeb8d03, 0x5597c9a469234e44),
    ("vda", 0xbf7bf4790b4937c1, 0x82553f6eee7a2c47),
    ("rot", 0x59580bc35ed9ba71, 0x96a4ed2b2a36f462),
    ("alu4", 0x422cabcc6638f415, 0x5ccc63797cbd9308),
    ("x3", 0x377049eaa690fb80, 0xf4047fd7d7e44f60),
    ("apex6", 0xdfefca8242affe94, 0x339fcd0ec43e3481),
    ("frg2", 0x65c810783919c839, 0xb063746aba5576e1),
    ("pair", 0xa620805307217189, 0xa288f59281243cd6),
    ("C5315", 0x4bebaf765069ddee, 0xa8563f03ec992347),
    ("C6288", 0x09f56b1284848103, 0x781473d703919a78),
    ("dp96", 0x1896a37d0464b81b, 0xd7e833c4b79fc5ed),
    (
        "layered_datapath(40, 20)",
        0x98f6cc8a8e472616,
        0xed3003dbb338f7e9,
    ),
];

fn circuit(name: &str) -> Netlist {
    match name {
        "dp96" => workloads::datapath(96),
        "layered_datapath(40, 20)" => workloads::layered_datapath(40, 20),
        _ => workloads::lookup_circuit(name)
            .expect("suite circuit")
            .build(),
    }
}

#[test]
fn mapped_netlists_keep_their_structure() {
    let lib = standard_library();
    for (name, area, delay) in DIGESTS {
        let nl = circuit(name);
        for (goal, want) in [(MapGoal::Area, area), (MapGoal::Delay, delay)] {
            let got = Mapper::new(&lib)
                .goal(goal)
                .map(&nl)
                .expect("suite circuits map")
                .structural_digest()
                .expect("mapped netlists are acyclic");
            assert_eq!(got, want, "{name} mapped for {goal:?}");
        }
    }
}
