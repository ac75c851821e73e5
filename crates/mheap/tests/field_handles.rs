//! Compiled field access: handles check the klass word, serve every VM of
//! their classpath and object format and refuse any other, and the core
//! library's bulk string and list paths return what the per-element paths
//! did.

use std::sync::Arc;

use mheap::stdlib::{define_core_classes, STRING};
use mheap::{
    Addr, ClassPath, Error, FieldType, HeapConfig, KlassDef, LayoutSpec, PrimType, Value, Vm,
};

fn classpath() -> Arc<ClassPath> {
    let cp = ClassPath::new();
    define_core_classes(&cp);
    for name in ["P", "Q"] {
        cp.define(KlassDef::new(
            name,
            None,
            vec![("x", FieldType::Prim(PrimType::Long)), ("next", FieldType::Ref)],
        ));
    }
    cp
}

fn vm(name: &str, cp: &Arc<ClassPath>) -> Vm {
    Vm::new(name, &HeapConfig::small(), Arc::clone(cp)).unwrap()
}

#[test]
fn a_handle_on_another_class_is_a_typed_error() {
    let cp = classpath();
    let mut vm = vm("a", &cp);
    let (p, q) = (vm.load_class("P").unwrap(), vm.load_class("Q").unwrap());
    let x = vm.field_handle(p, "x").unwrap();
    let next = vm.field_handle(p, "next").unwrap();
    // Same layout, another class: the klass word decides.
    let o = vm.alloc_instance(q).unwrap();
    match vm.long_field(o, x) {
        Err(Error::HandleMismatch { obj, expected, found }) => {
            assert_eq!((obj, expected, found), (o.0, p.0, u64::from(q.0)));
        }
        other => panic!("expected HandleMismatch, got {other:?}"),
    }
    assert!(matches!(vm.set_ref_field(o, next, Addr::NULL), Err(Error::HandleMismatch { .. })));
    // Null stays a bad address.
    assert!(matches!(vm.long_field(Addr::NULL, x), Err(Error::BadAddress(0))));
    // The handle's type is checked too.
    let o = vm.alloc_instance(p).unwrap();
    assert!(matches!(vm.int_field(o, x), Err(Error::FieldTypeMismatch { .. })));
    assert!(matches!(vm.ref_field(o, x), Err(Error::FieldTypeMismatch { .. })));
    assert!(matches!(vm.set_int_field(o, x, 1), Err(Error::FieldTypeMismatch { .. })));
    assert!(matches!(vm.field_handle(p, "nope"), Err(Error::NoSuchField { .. })));
}

#[test]
fn a_handle_resolved_on_one_vm_serves_every_vm_of_its_classpath() {
    let cp = classpath();
    let a = vm("a", &cp);
    let p = a.load_class("P").unwrap();
    let (x, next) = (a.field_handle(p, "x").unwrap(), a.field_handle(p, "next").unwrap());
    // B has not loaded P: the allocation loads it by number.
    let mut b = vm("b", &cp);
    assert!(b.klasses().by_name("P").is_none());
    let o = b.alloc_instance(x.klass()).unwrap();
    assert_eq!(b.klass_of(o).unwrap().name, "P");
    b.set_long_field(o, x, -7).unwrap();
    b.set_ref_field(o, next, o).unwrap();
    assert_eq!(b.long_field(o, x).unwrap(), -7);
    assert_eq!(b.ref_field(o, next).unwrap(), o);
    assert_eq!(b.get_long(o, "x").unwrap(), -7);
}

#[test]
fn a_handle_from_another_classpath_is_a_typed_error() {
    let a = vm("a", &classpath());
    let p = a.load_class("P").unwrap();
    let x = a.field_handle(p, "x").unwrap();
    // Another classpath with the same classes, loaded in the same order:
    // P gets the same number there, and the handle is still refused.
    let mut c = vm("c", &classpath());
    let p_there = c.load_class("P").unwrap();
    assert_eq!(p_there, p);
    let o = c.alloc_instance(p_there).unwrap();
    assert!(
        matches!(c.long_field(o, x), Err(Error::HandleClassPathMismatch { obj }) if obj == o.0)
    );
    assert!(matches!(c.set_long_field(o, x, 1), Err(Error::HandleClassPathMismatch { .. })));
}

#[test]
fn a_handle_from_another_object_format_is_a_typed_error() {
    // One classpath, two formats: P has one number but its fields start
    // 8 bytes earlier in the compact format, which has no baddr word.
    let cp = classpath();
    let a = vm("a", &cp);
    let p = a.load_class("P").unwrap();
    let x = a.field_handle(p, "x").unwrap();
    let config = HeapConfig { spec: LayoutSpec::COMPACT, ..HeapConfig::small() };
    let mut c = Vm::new("c", &config, Arc::clone(&cp)).unwrap();
    let o = c.alloc_instance(p).unwrap();
    let next = c.alloc_instance(p).unwrap();
    c.set_long(o, "x", 41).unwrap();
    match c.long_field(o, x) {
        Err(Error::HandleFormatMismatch { obj, resolved, used }) => {
            assert_eq!((obj, resolved, used), (o.0, LayoutSpec::SKYWAY, LayoutSpec::COMPACT));
        }
        other => panic!("expected HandleFormatMismatch, got {other:?}"),
    }
    // A write is refused too, and the neighbouring object is untouched.
    assert!(matches!(c.set_long_field(o, x, -1), Err(Error::HandleFormatMismatch { .. })));
    assert_eq!(c.get_long(o, "x").unwrap(), 41);
    assert_eq!(c.klass_of(next).unwrap().name, "P");
    assert!(c.verify_heap().unwrap().is_empty());
    // Resolved on the compact VM, the handle serves it.
    let x_there = c.field_handle(p, "x").unwrap();
    assert_eq!(c.long_field(o, x_there).unwrap(), 41);
}

#[test]
fn strings_round_trip_through_the_bulk_copies() {
    let cp = classpath();
    let mut vm = vm("s", &cp);
    for text in ["", "a", "hello skyway", "héllo — 細かい ✓", "𝄞 clef, 😀 face", "\u{10FFFF}"]
    {
        let s = vm.new_string(text).unwrap();
        assert_eq!(vm.read_string(s).unwrap(), text);
        let units = text.encode_utf16().count() as u64;
        assert_eq!(vm.array_len(vm.get_ref(s, "value").unwrap()).unwrap(), units);
        // String.hashCode's recurrence over the (sign-extended) units.
        let h = text
            .encode_utf16()
            .fold(0i32, |h, u| h.wrapping_mul(31).wrapping_add(i32::from(u as i16)));
        assert_eq!(vm.string_hash(s).unwrap(), h, "{text:?}");
    }
    let s = vm.new_string("hello").unwrap();
    assert_eq!(vm.string_hash(s).unwrap(), 99_162_322);
}

#[test]
fn unpaired_surrogates_read_lossy_as_before() {
    let cp = classpath();
    let mut vm = vm("s", &cp);
    let cases: [&[u16]; 4] = [
        &[0xD800],
        &[0x61, 0xDC00, 0x62],
        &[0xD83D, 0xDE00, 0xD800, 0xD800, 0x63],
        &[0xDFFF, 0xD834, 0xDD1E],
    ];
    for units in cases {
        let ck = vm.load_class("[C").unwrap();
        let arr = vm.alloc_array(ck, units.len() as u64).unwrap();
        for (i, &u) in units.iter().enumerate() {
            vm.array_set(arr, i as u64, Value::Char(u)).unwrap();
        }
        let t = vm.push_temp_root(arr);
        let sk = vm.load_class(STRING).unwrap();
        let s = vm.alloc_instance(sk).unwrap();
        let arr = vm.temp_root(t);
        vm.pop_temp_root();
        vm.set_ref(s, "value", arr).unwrap();
        assert_eq!(vm.read_string(s).unwrap(), String::from_utf16_lossy(units), "{units:x?}");
    }
}

#[test]
fn a_string_whose_value_is_not_a_char_array_is_refused() {
    let cp = classpath();
    let mut vm = vm("s", &cp);
    let s = vm.new_string("x").unwrap();
    let h = vm.handle(s);
    let ik = vm.load_class("[I").unwrap();
    let ints = vm.alloc_array(ik, 1).unwrap();
    let s = vm.resolve(h).unwrap();
    vm.set_ref(s, "value", ints).unwrap();
    assert!(matches!(vm.read_string(s), Err(Error::HandleMismatch { .. })));
    vm.set_ref(s, "value", Addr::NULL).unwrap();
    assert!(matches!(vm.read_string(s), Err(Error::BadAddress(0))));
}

/// Every element, the slow way.
fn list_get_loop(vm: &Vm, list: Addr) -> Vec<Addr> {
    (0..vm.list_len(list).unwrap()).map(|i| vm.list_get(list, i).unwrap()).collect()
}

#[test]
fn the_whole_list_read_equals_a_list_get_loop_as_the_list_grows() {
    let cp = classpath();
    let mut vm = vm("l", &cp);
    let list = vm.new_list(2).unwrap();
    let lh = vm.handle(list);
    let list = vm.resolve(lh).unwrap();
    assert!(vm.list_elements(list).unwrap().is_empty());
    for i in 0..200 {
        let e = vm.new_integer(i).unwrap();
        let list = vm.resolve(lh).unwrap();
        vm.list_push(list, e).unwrap();
        if i % 37 == 0 {
            vm.minor_gc().unwrap();
        }
        let list = vm.resolve(lh).unwrap();
        assert_eq!(vm.list_elements(list).unwrap(), list_get_loop(&vm, list));
    }
    let list = vm.resolve(lh).unwrap();
    let values: Vec<i32> = vm
        .list_elements(list)
        .unwrap()
        .into_iter()
        .map(|e| vm.get_int(e, "value").unwrap())
        .collect();
    assert_eq!(values, (0..200).collect::<Vec<_>>());
}

#[test]
fn list_extend_keeps_its_elements_across_the_collections_its_growth_triggers() {
    let cp = classpath();
    let mut vm = vm("l", &cp);
    let list = vm.new_list(4).unwrap();
    let lh = vm.handle(list);
    let mut want = Vec::new();
    for round in 0..300 {
        let batch: Vec<_> = (0..round % 23)
            .map(|i| {
                let text = format!("r{round}e{i}");
                want.push(text.clone());
                let s = vm.new_string(&text).unwrap();
                vm.handle(s)
            })
            .collect();
        let elems: Vec<Addr> = batch.iter().map(|&h| vm.resolve(h).unwrap()).collect();
        let list = vm.resolve(lh).unwrap();
        vm.list_extend(list, &elems).unwrap();
        for h in batch {
            vm.release(h).unwrap();
        }
    }
    assert!(vm.stats.minor_gcs > 0, "the small heap should have collected");
    let list = vm.resolve(lh).unwrap();
    let got: Vec<String> =
        vm.list_elements(list).unwrap().into_iter().map(|s| vm.read_string(s).unwrap()).collect();
    assert_eq!(got, want);
    assert_eq!(vm.list_elements(list).unwrap(), list_get_loop(&vm, list));
    mheap::verify::assert_heap_ok(&vm);
}
