//! Pins `Mapper::map`'s output on the Table-1 suite, dp96 and
//! `layered_datapath(40, 20)`, for both mapping goals, down to signal
//! names and order. The subject-graph clean-up (`strash`, `sweep`) may
//! get faster, never different: the digests are those the checked
//! `substitute_stem` path produced.

use library::{standard_library, write_mapped_blif, MapGoal, Mapper};
use netlist::Netlist;

/// Circuit, FNV-1a hash of the `write_mapped_blif` text of its
/// area-mapped and delay-mapped netlists.
const DIGESTS: [(&str, u64, u64); 19] = [
    ("Z5xp1", 0x40456d593d3f212a, 0xd6bc9a859a985b1f),
    ("term1", 0x702e446ee5118b61, 0x61e550b29c659ed3),
    ("9sym", 0x9b757d3850c4d5c3, 0x8d1008e0b30dcef6),
    ("C432", 0xf0333d7f93ae353d, 0x92e8e425d4051aec),
    ("C499", 0xcf5f8d8e24d15df3, 0xafc53d35a1bb6a76),
    ("C1355", 0xc8e4177a01552e21, 0x72ca12e7e7310115),
    ("C880", 0xb3217074ff62e84e, 0x635575a43a3cbede),
    ("C1908", 0xcdbf4d06fd362317, 0xe530980a1dc5dceb),
    ("vda", 0x9dfff405f9f4320e, 0x573976c75fa7088d),
    ("rot", 0xa54a511f11753d62, 0x293f4566021cbe05),
    ("alu4", 0x5c166b009f41461d, 0xfa9ff6523da77bce),
    ("x3", 0x7c1af284208b501c, 0xba10f184292836e9),
    ("apex6", 0x86c0e1d2fc873192, 0xd6ea8d9885c26cb9),
    ("frg2", 0xf3e00693d5ed8672, 0x415c845c3f3859bd),
    ("pair", 0xbf12d93e7a920699, 0x878f5cb4dbed607e),
    ("C5315", 0xde8e5cff5157b7da, 0x387549db42f7f452),
    ("C6288", 0xda371d6072645a49, 0xd480f0df1b8976fa),
    ("dp96", 0xff1e64d55fd23ab0, 0x9ebed124eea30805),
    (
        "layered_datapath(40, 20)",
        0xbcc9c1707d44ea83,
        0x770dcb3b5879572b,
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

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn mapped_netlists_keep_their_structure() {
    let lib = standard_library();
    for (name, area, delay) in DIGESTS {
        let nl = circuit(name);
        for (goal, want) in [(MapGoal::Area, area), (MapGoal::Delay, delay)] {
            let mapped = Mapper::new(&lib)
                .goal(goal)
                .map(&nl)
                .expect("suite circuits map");
            let blif = write_mapped_blif(&lib, &mapped).expect("mapped netlists write");
            assert_eq!(fnv1a64(&blif), want, "{name} mapped for {goal:?}");
        }
    }
}
