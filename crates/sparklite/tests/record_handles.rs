//! The compiled record path agrees with the by-name one: every sparklite
//! record class, built through its resolved handles, reads back the same by
//! name, and built by name, reads back the same through the handles.

use mheap::{HeapConfig, Vm};
use proptest::prelude::*;
use sparklite::classes::{
    define_spark_classes, new_closure, SparkClasses, ADJ, CLOSURE, CONTRIB, EDGE, LABEL, QUERY,
    RANK, WORD_COUNT,
};

/// The two-long record classes with their field names.
const LONGS: [(&str, (&str, &str)); 3] =
    [(EDGE, ("src", "dst")), (LABEL, ("node", "label")), (QUERY, ("a", "b"))];
/// The long-and-double record classes with their second field's name.
const LONG_DOUBLES: [(&str, &str); 2] = [(RANK, "rank"), (CONTRIB, "value")];

fn vm() -> Vm {
    let cp = mheap::ClassPath::new();
    define_spark_classes(&cp);
    Vm::new("records", &HeapConfig::small(), cp).unwrap()
}

/// Allocates an instance of `class`, by name.
fn alloc(vm: &mut Vm, class: &str) -> mheap::Addr {
    let k = vm.load_class(class).unwrap();
    vm.alloc_instance(k).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn handle_and_by_name_accessors_agree_on_every_record_class(
        a in any::<i64>(),
        b in any::<i64>(),
        x in any::<f64>(),
        count in any::<i32>(),
        word in proptest::collection::vec(0u32..0x11_0000, 0..12).prop_map(|cs| {
            cs.into_iter().map(|c| char::from_u32(c).unwrap_or('\u{fffd}')).collect::<String>()
        }),
        neighbors in proptest::collection::vec(any::<i64>(), 0..9),
    ) {
        let mut vm = vm();
        let c = SparkClasses::resolve(&vm).unwrap();
        // Handles write, names read.
        for (class, (fa, fb)) in LONGS {
            let r = match class {
                EDGE => c.new_edge(&mut vm, a, b),
                LABEL => c.new_label(&mut vm, a, b),
                _ => c.new_query(&mut vm, a, b),
            }.unwrap();
            prop_assert_eq!(vm.klass_of(r).unwrap().name.as_str(), class);
            prop_assert_eq!((vm.get_long(r, fa).unwrap(), vm.get_long(r, fb).unwrap()), (a, b));
        }
        for (class, fb) in LONG_DOUBLES {
            let r = if class == RANK { c.new_rank(&mut vm, a, x) } else { c.new_contrib(&mut vm, a, x) }
                .unwrap();
            prop_assert_eq!(vm.klass_of(r).unwrap().name.as_str(), class);
            prop_assert_eq!(vm.get_long(r, "node").unwrap(), a);
            prop_assert_eq!(vm.get_double(r, fb).unwrap(), x);
        }
        let r = c.new_adj(&mut vm, a, &neighbors).unwrap();
        prop_assert_eq!(vm.get_long(r, "node").unwrap(), a);
        let arr = vm.get_ref(r, "neighbors").unwrap();
        let by_name: Vec<i64> = (0..vm.array_len(arr).unwrap())
            .map(|i| vm.array_get_raw(arr, i).unwrap() as i64)
            .collect();
        prop_assert_eq!(&by_name, &neighbors);
        let r = c.new_word_count(&mut vm, &word, count).unwrap();
        prop_assert_eq!(vm.klass_of(r).unwrap().name.as_str(), WORD_COUNT);
        let s = vm.get_ref(r, "word").unwrap();
        prop_assert_eq!(vm.read_string(s).unwrap(), word.clone());
        prop_assert_eq!(vm.get_int(r, "count").unwrap(), count);
        let r = new_closure(&mut vm, &word, count, "captured").unwrap();
        prop_assert_eq!(vm.klass_of(r).unwrap().name.as_str(), CLOSURE);
        let name = vm.get_ref(r, "name").unwrap();
        prop_assert_eq!(vm.read_string(name).unwrap(), word.clone());
        prop_assert_eq!(vm.get_int(r, "stage").unwrap(), count);

        // Names write, handles read.
        for (class, (fa, fb)) in LONGS {
            let r = alloc(&mut vm, class);
            vm.set_long(r, fa, a).unwrap();
            vm.set_long(r, fb, b).unwrap();
            let got = match class {
                EDGE => c.read_edge(&vm, r),
                LABEL => c.read_label(&vm, r),
                _ => c.read_query(&vm, r),
            }.unwrap();
            prop_assert_eq!(got, (a, b));
        }
        for (class, fb) in LONG_DOUBLES {
            let r = alloc(&mut vm, class);
            vm.set_long(r, "node", a).unwrap();
            vm.set_double(r, fb, x).unwrap();
            let got = if class == RANK { c.read_rank(&vm, r) } else { c.read_contrib(&vm, r) };
            prop_assert_eq!(got.unwrap(), (a, x));
        }
        let adj = c.new_adj(&mut vm, 0, &neighbors).unwrap();
        let ah = vm.handle(adj);
        let r = alloc(&mut vm, ADJ);
        let arr = vm.get_ref(vm.resolve(ah).unwrap(), "neighbors").unwrap();
        vm.set_long(r, "node", a).unwrap();
        vm.set_ref(r, "neighbors", arr).unwrap();
        prop_assert_eq!(c.read_adj(&vm, r).unwrap(), (a, neighbors.clone()));
        let s = vm.new_string(&word).unwrap();
        let sh = vm.handle(s);
        let r = alloc(&mut vm, WORD_COUNT);
        vm.set_ref(r, "word", vm.resolve(sh).unwrap()).unwrap();
        vm.set_int(r, "count", count).unwrap();
        prop_assert_eq!(c.read_word_count(&vm, r).unwrap(), (word.clone(), count));

        // A record of one class through another's handles is a typed error.
        let e = c.new_edge(&mut vm, a, b).unwrap();
        prop_assert!(matches!(
            c.read_label(&vm, e),
            Err(sparklite::Error::Heap(mheap::Error::HandleMismatch { .. }))
        ));
        mheap::verify::assert_heap_ok(&vm);
    }
}

/// Adjacency records move their `long[]` in one bulk copy each way: the
/// copy lands element for element at every length (empty, one, and past a
/// thousand), on a VM that has not loaded `[J` itself, and an array of
/// another class in the neighbours slot is refused rather than misread.
#[test]
fn adjacency_lists_move_in_bulk_at_every_length() {
    let cp = mheap::ClassPath::new();
    define_spark_classes(&cp);
    let resolver = Vm::new("resolver", &HeapConfig::small(), std::sync::Arc::clone(&cp)).unwrap();
    let c = SparkClasses::resolve(&resolver).unwrap();
    let mut vm = Vm::new("fresh", &HeapConfig::small(), cp).unwrap();
    assert!(vm.klasses().by_name("[J").is_none(), "the fresh VM meets [J through the records");
    for len in [0i64, 1, 1_000, 4_099] {
        let neighbors: Vec<i64> =
            (0..len).map(|i| i.wrapping_mul(-0x61c8_8646_80b5_83eb)).collect();
        let r = c.new_adj(&mut vm, len, &neighbors).unwrap();
        let arr = vm.get_ref(r, "neighbors").unwrap();
        let by_element: Vec<i64> = (0..vm.array_len(arr).unwrap())
            .map(|i| vm.array_get_raw(arr, i).unwrap() as i64)
            .collect();
        assert_eq!(by_element, neighbors, "len {len}");
        assert_eq!(c.read_adj(&vm, r).unwrap(), (len, neighbors), "len {len}");
    }
    let ints = vm.load_class("[I").unwrap();
    let arr = vm.alloc_array(ints, 3).unwrap();
    let ah = vm.handle(arr);
    let r = alloc(&mut vm, ADJ);
    vm.set_ref(r, "neighbors", vm.resolve(ah).unwrap()).unwrap();
    assert!(matches!(
        c.read_adj(&vm, r),
        Err(sparklite::Error::Heap(mheap::Error::HandleMismatch { .. }))
    ));
    mheap::verify::assert_heap_ok(&vm);
}
