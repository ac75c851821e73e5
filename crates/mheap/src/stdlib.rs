//! An in-heap "java.lang / java.util" core: strings, boxed primitives,
//! pairs, growable lists, and an identity-hash `HashMap`.
//!
//! The `HashMap` matters to the evaluation: its bucket placement is keyed by
//! the identity hashcode *cached in each key's mark word*. A conventional
//! deserializer creates brand-new key objects with brand-new hashcodes, so
//! the map must be rebuilt (rehashed) on the receiver; Skyway preserves mark
//! words, so the received map is usable as-is (§1, §4.2 "Header Update").
//! The ablation benchmark quantifies exactly that difference.

use std::sync::{Arc, OnceLock};

use crate::klass::{ClassPath, FieldType, KlassDef, KlassId, KlassKind, PrimType};
use crate::layout::Addr;
use crate::object::FieldHandle;
use crate::vm::Vm;
use crate::{Error, Result};

/// Class name of the in-heap string.
pub const STRING: &str = "java.lang.String";
/// Class name of the boxed 32-bit integer.
pub const INTEGER: &str = "java.lang.Integer";
/// Class name of the boxed 64-bit integer.
pub const LONG: &str = "java.lang.Long";
/// Class name of the boxed double.
pub const DOUBLE: &str = "java.lang.Double";
/// Class name of the generic pair.
pub const PAIR: &str = "util.Pair";
/// Class name of the growable list.
pub const ARRAY_LIST: &str = "java.util.ArrayList";
/// Class name of the identity-hash map.
pub const HASH_MAP: &str = "java.util.HashMap";
/// Class name of a hash-map chain node.
pub const HASH_NODE: &str = "java.util.HashMap$Node";

/// Class name of the UTF-16 code-unit array behind a string.
const CHAR_ARRAY: &str = "[C";
/// Class name of the backing array of lists and hash maps.
const OBJECT_ARRAY: &str = "[Ljava.lang.Object;";

/// The classes a string is made of, with the string's fields, resolved
/// once per VM ([`Vm::strings`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StringClasses {
    chars: KlassId,
    string: KlassId,
    value: FieldHandle,
    hash: FieldHandle,
}

/// The classes a list is made of, with the list's fields, resolved once per
/// VM ([`Vm::lists`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ListClasses {
    objects: KlassId,
    list: KlassId,
    data: FieldHandle,
    size: FieldHandle,
}

/// The value in `cell`, resolved by `resolve` on first use.
fn resolved<T: Copy>(cell: &OnceLock<T>, resolve: impl FnOnce() -> Result<T>) -> Result<T> {
    if let Some(c) = cell.get() {
        return Ok(*c);
    }
    let c = resolve()?;
    Ok(*cell.get_or_init(|| c))
}

/// Registers all core class definitions on a classpath. Idempotent.
pub fn define_core_classes(cp: &Arc<ClassPath>) {
    cp.define_all([
        KlassDef::new(
            STRING,
            None,
            vec![("value", FieldType::Ref), ("hash", FieldType::Prim(PrimType::Int))],
        ),
        KlassDef::new(INTEGER, None, vec![("value", FieldType::Prim(PrimType::Int))]),
        KlassDef::new(LONG, None, vec![("value", FieldType::Prim(PrimType::Long))]),
        KlassDef::new(DOUBLE, None, vec![("value", FieldType::Prim(PrimType::Double))]),
        KlassDef::new(PAIR, None, vec![("first", FieldType::Ref), ("second", FieldType::Ref)]),
        KlassDef::new(
            ARRAY_LIST,
            None,
            vec![("elementData", FieldType::Ref), ("size", FieldType::Prim(PrimType::Int))],
        ),
        KlassDef::new(
            HASH_MAP,
            None,
            vec![("table", FieldType::Ref), ("size", FieldType::Prim(PrimType::Int))],
        ),
        KlassDef::new(
            HASH_NODE,
            None,
            vec![
                ("hash", FieldType::Prim(PrimType::Int)),
                ("key", FieldType::Ref),
                ("value", FieldType::Ref),
                ("next", FieldType::Ref),
            ],
        ),
    ]);
}

impl Vm {
    /// The string classes, loaded (array class first, as a JVM loads them
    /// for `new String`) on this VM's first string.
    fn strings(&self) -> Result<StringClasses> {
        resolved(&self.strings, || {
            let (chars, string) = (self.load_class(CHAR_ARRAY)?, self.load_class(STRING)?);
            let field = |name| self.field_handle(string, name);
            Ok(StringClasses { chars, string, value: field("value")?, hash: field("hash")? })
        })
    }

    /// The list classes, loaded (backing array first) on this VM's first
    /// list.
    fn lists(&self) -> Result<ListClasses> {
        resolved(&self.lists, || {
            let (objects, list) = (self.load_class(OBJECT_ARRAY)?, self.load_class(ARRAY_LIST)?);
            let field = |name| self.field_handle(list, name);
            Ok(ListClasses { objects, list, data: field("elementData")?, size: field("size")? })
        })
    }

    /// The array behind `arr`'s elements, checked to be of class `klass`:
    /// the arena offset of element 0 and the length.
    fn array_body(&self, arr: Addr, klass: KlassId) -> Result<(u64, u64)> {
        if arr.is_null() {
            return Err(Error::BadAddress(0));
        }
        let found = self.heap().arena().load_word(arr.0 + self.spec().klass_off())?;
        if found != u64::from(klass.0) {
            return Err(Error::HandleMismatch { obj: arr.0, expected: klass.0, found });
        }
        Ok((arr.0 + self.spec().array_header(), self.array_len(arr)?))
    }

    // ----- long arrays --------------------------------------------------

    /// Checks that `klass` is a `long[]` class, loading it by number if
    /// another VM of the classpath loaded it first (never by name: the
    /// caller decides when `[J` is first loaded).
    fn long_array_class(&self, klass: KlassId) -> Result<()> {
        let k = self.klasses().get(klass).or_else(|_| self.load_numbered(klass))?;
        if k.kind != KlassKind::PrimArray(PrimType::Long) {
            return Err(Error::NotAnArray(k.name.clone()));
        }
        Ok(())
    }

    /// Allocates a `long[]` of class `klass` holding `values`: one class
    /// check and one bulk copy, where [`Vm::array_set_raw`] resolves the
    /// array's class per element.
    ///
    /// # Errors
    /// [`Error::NotAnArray`] when `klass` is not a `long[]` class;
    /// allocation errors.
    pub fn new_long_array(&mut self, klass: KlassId, values: &[i64]) -> Result<Addr> {
        self.long_array_class(klass)?;
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_ne_bytes()).collect();
        let arr = self.alloc_array(klass, values.len() as u64)?;
        self.heap().arena().write_bytes(arr.0 + self.spec().array_header(), &bytes)?;
        Ok(arr)
    }

    /// Every element of the `long[]` `arr`, checked to be of class `klass`
    /// (one klass-word compare for the whole array), in one bulk copy.
    ///
    /// # Errors
    /// [`Error::NotAnArray`] when `klass` is not a `long[]` class;
    /// [`Error::HandleMismatch`] when `arr` is not of class `klass`;
    /// [`Error::BadAddress`] for null.
    pub fn read_long_array(&self, arr: Addr, klass: KlassId) -> Result<Vec<i64>> {
        self.long_array_class(klass)?;
        let (at, len) = self.array_body(arr, klass)?;
        let mut words = vec![0u64; len as usize];
        self.heap().arena().read_words(at, &mut words)?;
        Ok(words.into_iter().map(|w| w as i64).collect())
    }

    // ----- strings ------------------------------------------------------

    /// Allocates an in-heap string with a value-based cached hash (Java's
    /// `String.hashCode` formula over UTF-16 units). The units reach the
    /// char array in one bulk copy.
    ///
    /// # Errors
    /// Allocation / class errors.
    pub fn new_string(&mut self, s: &str) -> Result<Addr> {
        let c = self.strings()?;
        let mut units = Vec::with_capacity(s.len() * 2);
        let mut h: i32 = 0;
        for u in s.encode_utf16() {
            units.extend_from_slice(&u.to_ne_bytes());
            h = h.wrapping_mul(31).wrapping_add(i32::from(u as i16));
        }
        let arr = self.alloc_array(c.chars, units.len() as u64 / 2)?;
        self.heap().arena().write_bytes(arr.0 + self.spec().array_header(), &units)?;
        let t = self.push_temp_root(arr);
        let obj = self.alloc_instance(c.string)?;
        let arr = self.temp_root(t);
        self.pop_temp_root();
        self.set_ref_field(obj, c.value, arr)?;
        self.set_int_field(obj, c.hash, h)?;
        Ok(obj)
    }

    /// Reads an in-heap string back into a Rust `String`: one bulk copy of
    /// the char array, then one exactly-sized decode.
    ///
    /// # Errors
    /// Address / class errors; lossy for unpaired surrogates (replacement
    /// character), mirroring `String::from_utf16_lossy`.
    pub fn read_string(&self, obj: Addr) -> Result<String> {
        let c = self.strings()?;
        let (at, len) = self.array_body(self.ref_field(obj, c.value)?, c.chars)?;
        let mut bytes = vec![0u8; len as usize * 2];
        self.heap().arena().read_bytes(at, &mut bytes)?;
        let units = bytes.chunks_exact(2).map(|b| u16::from_ne_bytes([b[0], b[1]]));
        let decoded =
            || char::decode_utf16(units.clone()).map(|r| r.unwrap_or(char::REPLACEMENT_CHARACTER));
        let mut out = String::with_capacity(decoded().map(char::len_utf8).sum());
        out.extend(decoded());
        Ok(out)
    }

    /// The value-based hash cached in a string object.
    ///
    /// # Errors
    /// Address / field errors.
    // tidy:allow(unreached-pub, read by field_handles' strings_round_trip_through_the_bulk_copies)
    pub fn string_hash(&self, obj: Addr) -> Result<i32> {
        self.int_field(obj, self.strings()?.hash)
    }

    // ----- boxed primitives ----------------------------------------------

    /// Boxes an `i32`.
    ///
    /// # Errors
    /// Allocation errors.
    pub fn new_integer(&mut self, v: i32) -> Result<Addr> {
        let k = self.load_class(INTEGER)?;
        let obj = self.alloc_instance(k)?;
        self.set_int(obj, "value", v)?;
        Ok(obj)
    }

    /// Boxes an `i64`.
    ///
    /// # Errors
    /// Allocation errors.
    // tidy:allow(unreached-pub, read by transfer_tests, prop_tests and prop_transfer)
    pub fn new_long(&mut self, v: i64) -> Result<Addr> {
        let k = self.load_class(LONG)?;
        let obj = self.alloc_instance(k)?;
        self.set_long(obj, "value", v)?;
        Ok(obj)
    }

    /// Allocates a pair of references.
    ///
    /// # Errors
    /// Allocation errors.
    // tidy:allow(unreached-pub, read by transfer_tests, gc_tests and serlab's roundtrip tests)
    pub fn new_pair(&mut self, first: Addr, second: Addr) -> Result<Addr> {
        let tf = self.push_temp_root(first);
        let ts = self.push_temp_root(second);
        let k = self.load_class(PAIR)?;
        let obj = self.alloc_instance(k)?;
        let second = self.temp_root(ts);
        let first = self.temp_root(tf);
        self.pop_temp_root();
        self.pop_temp_root();
        self.set_ref(obj, "first", first)?;
        self.set_ref(obj, "second", second)?;
        Ok(obj)
    }

    // ----- ArrayList ------------------------------------------------------

    /// Allocates an empty list with the given capacity.
    ///
    /// # Errors
    /// Allocation errors.
    pub fn new_list(&mut self, capacity: u64) -> Result<Addr> {
        let c = self.lists()?;
        let data = self.alloc_array(c.objects, capacity.max(4))?;
        let t = self.push_temp_root(data);
        let list = self.alloc_instance(c.list)?;
        let data = self.temp_root(t);
        self.pop_temp_root();
        self.set_ref_field(list, c.data, data)?;
        self.set_int_field(list, c.size, 0)?;
        Ok(list)
    }

    /// Appends `elem`, growing the backing array if needed. A GC during
    /// growth may move objects, so callers must hold the list in a handle
    /// or temp root.
    ///
    /// # Errors
    /// Allocation errors.
    pub fn list_push(&mut self, list: Addr, elem: Addr) -> Result<()> {
        self.list_extend(list, &[elem])
    }

    /// Appends every element of `elems` in order, growing the backing array
    /// at most once. `list` and `elems` stay rooted across a collection the
    /// growth triggers; as with [`Vm::list_push`], callers hold the list in
    /// a handle or temp root to find it afterwards.
    ///
    /// # Errors
    /// Allocation errors.
    pub fn list_extend(&mut self, list: Addr, elems: &[Addr]) -> Result<()> {
        let c = self.lists()?;
        let size = self.int_field(list, c.size)? as u64;
        let data = self.ref_field(list, c.data)?;
        let (_, cap) = self.array_body(data, c.objects)?;
        let need = size + elems.len() as u64;
        if need <= cap {
            self.store_elems(data, size, elems)?;
            return self.set_int_field(list, c.size, need as i32);
        }
        // Root the list, its array and the new elements in one block of
        // temp roots; a collection in the allocation updates them.
        let base = self.temp_roots.len();
        self.temp_roots.extend_from_slice(&[list, data]);
        self.temp_roots.extend_from_slice(elems);
        let grown = self.alloc_array(c.objects, (cap * 2).max(need));
        let rooted = self.temp_roots.split_off(base);
        let (bigger, list, data) = (grown?, rooted[0], rooted[1]);
        let header = self.spec().array_header();
        self.heap.arena().copy_within(data.0 + header, bigger.0 + header, size as usize * 8)?;
        if size > 0 && self.heap.in_old(bigger) {
            self.heap.dirty_card(bigger);
        }
        self.store_elems(bigger, size, &rooted[2..])?;
        self.set_ref_field(list, c.data, bigger)?;
        self.set_int_field(list, c.size, need as i32)
    }

    /// Stores `elems` into the object array `data` from index `from`, which
    /// the caller keeps inside its length, with one write barrier.
    fn store_elems(&mut self, data: Addr, from: u64, elems: &[Addr]) -> Result<()> {
        let at = data.0 + self.spec().array_header() + from * 8;
        for (i, e) in (0u64..).zip(elems) {
            self.heap.arena().store_word(at + i * 8, e.0)?;
        }
        if !elems.is_empty() && self.heap.in_old(data) {
            self.heap.dirty_card(data);
        }
        Ok(())
    }

    /// Number of elements in the list.
    ///
    /// # Errors
    /// Field errors.
    pub fn list_len(&self, list: Addr) -> Result<u64> {
        Ok(self.int_field(list, self.lists()?.size)? as u64)
    }

    /// Element at `idx`.
    ///
    /// # Errors
    /// [`Error::IndexOutOfBounds`].
    pub fn list_get(&self, list: Addr, idx: u64) -> Result<Addr> {
        let c = self.lists()?;
        let size = self.int_field(list, c.size)? as u64;
        if idx >= size {
            return Err(Error::IndexOutOfBounds { index: idx, len: size });
        }
        let data = self.ref_field(list, c.data)?;
        self.array_get_ref(data, idx)
    }

    /// Every element of the list, in order, read from the backing array in
    /// one checked range read — what a `list_get` loop returns.
    ///
    /// # Errors
    /// Field errors; [`Error::IndexOutOfBounds`] when the size field
    /// exceeds the backing array.
    pub fn list_elements(&self, list: Addr) -> Result<Vec<Addr>> {
        let c = self.lists()?;
        let size = self.int_field(list, c.size)? as u64;
        let (at, cap) = self.array_body(self.ref_field(list, c.data)?, c.objects)?;
        if size > cap {
            return Err(Error::IndexOutOfBounds { index: size, len: cap });
        }
        let mut words = vec![0u64; size as usize];
        self.heap.arena().read_words(at, &mut words)?;
        Ok(words.into_iter().map(Addr).collect())
    }

    // ----- identity-hash HashMap -----------------------------------------

    /// Allocates an empty hash map with `buckets` chains.
    ///
    /// # Errors
    /// Allocation errors.
    pub fn new_hash_map(&mut self, buckets: u64) -> Result<Addr> {
        let arr_k = self.load_class(OBJECT_ARRAY)?;
        let table = self.alloc_array(arr_k, buckets.max(4))?;
        let t = self.push_temp_root(table);
        let k = self.load_class(HASH_MAP)?;
        let map = self.alloc_instance(k)?;
        let table = self.temp_root(t);
        self.pop_temp_root();
        self.set_ref(map, "table", table)?;
        self.set_int(map, "size", 0)?;
        Ok(map)
    }

    /// Inserts `key → value` using the key's identity hashcode (cached in
    /// the key's mark word). Replaces the value if the identical key object
    /// is already present. Returns `true` if a new entry was created.
    ///
    /// # Errors
    /// Allocation errors.
    pub fn map_put(&mut self, map: Addr, key: Addr, value: Addr) -> Result<bool> {
        let h = self.identity_hash(key)?;
        let table = self.get_ref(map, "table")?;
        let nbuckets = self.array_len(table)?;
        let b = u64::from(h) % nbuckets;
        // Search the chain for the identical key object.
        let mut node = self.array_get_ref(table, b)?;
        while !node.is_null() {
            let k = self.get_ref(node, "key")?;
            if k == key {
                self.set_ref(node, "value", value)?;
                return Ok(false);
            }
            node = self.get_ref(node, "next")?;
        }
        let tm = self.push_temp_root(map);
        let tk = self.push_temp_root(key);
        let tv = self.push_temp_root(value);
        let node_k = self.load_class(HASH_NODE)?;
        let node = self.alloc_instance(node_k)?;
        let value = self.temp_root(tv);
        let key = self.temp_root(tk);
        let map = self.temp_root(tm);
        self.pop_temp_root();
        self.pop_temp_root();
        self.pop_temp_root();
        let table = self.get_ref(map, "table")?;
        let head = self.array_get_ref(table, b)?;
        self.set_int(node, "hash", h as i32)?;
        self.set_ref(node, "key", key)?;
        self.set_ref(node, "value", value)?;
        self.set_ref(node, "next", head)?;
        self.array_set_ref(table, b, node)?;
        let size = self.get_int(map, "size")?;
        self.set_int(map, "size", size + 1)?;
        Ok(true)
    }

    /// Looks a key up by identity.
    ///
    /// # Errors
    /// Address errors.
    // tidy:allow(unreached-pub, read by prop_tests' map_holds_many_entries)
    pub fn map_get(&self, map: Addr, key: Addr) -> Result<Option<Addr>> {
        let h = match self.cached_hash(key)? {
            0 => return Ok(None), // never hashed → never inserted
            h => h,
        };
        let table = self.get_ref(map, "table")?;
        let nbuckets = self.array_len(table)?;
        let mut node = self.array_get_ref(table, u64::from(h) % nbuckets)?;
        while !node.is_null() {
            if self.get_ref(node, "key")? == key {
                return Ok(Some(self.get_ref(node, "value")?));
            }
            node = self.get_ref(node, "next")?;
        }
        Ok(None)
    }

    /// Number of entries.
    ///
    /// # Errors
    /// Field errors.
    // tidy:allow(unreached-pub, read by transferred_hashmap_is_usable_without_rehash)
    pub fn map_len(&self, map: Addr) -> Result<u64> {
        Ok(self.get_int(map, "size")? as u64)
    }

    /// Verifies that every node sits in the bucket its *current* mark-word
    /// hash selects — true for a map Skyway transferred (hashcodes
    /// preserved), generally false for one whose keys were recreated by a
    /// conventional deserializer until it is rehashed.
    ///
    /// # Errors
    /// Address errors.
    pub fn map_is_consistent(&self, map: Addr) -> Result<bool> {
        let table = self.get_ref(map, "table")?;
        let nbuckets = self.array_len(table)?;
        for b in 0..nbuckets {
            let mut node = self.array_get_ref(table, b)?;
            while !node.is_null() {
                let key = self.get_ref(node, "key")?;
                let h = self.cached_hash(key)?;
                if h == 0 || u64::from(h) % nbuckets != b {
                    return Ok(false);
                }
                node = self.get_ref(node, "next")?;
            }
        }
        Ok(true)
    }

    /// Rebuilds the bucket structure from the keys' current identity
    /// hashes — what a conventional deserializer must do after recreating
    /// key objects ("additionally reshuffle key/value pairs", §1).
    /// Returns the number of entries rehashed.
    ///
    /// # Errors
    /// Allocation errors.
    pub fn map_rehash(&mut self, map: Addr) -> Result<u64> {
        let table = self.get_ref(map, "table")?;
        let nbuckets = self.array_len(table)?;
        // Collect all nodes.
        let mut nodes = Vec::new();
        for b in 0..nbuckets {
            let mut node = self.array_get_ref(table, b)?;
            while !node.is_null() {
                nodes.push(node);
                node = self.get_ref(node, "next")?;
            }
        }
        // Clear buckets.
        for b in 0..nbuckets {
            self.array_set_ref(table, b, Addr::NULL)?;
        }
        // Re-insert by current identity hash.
        for &node in &nodes {
            let key = self.get_ref(node, "key")?;
            let h = self.identity_hash(key)?;
            self.set_int(node, "hash", h as i32)?;
            let b = u64::from(h) % nbuckets;
            let head = self.array_get_ref(table, b)?;
            self.set_ref(node, "next", head)?;
            self.array_set_ref(table, b, node)?;
        }
        Ok(nodes.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;

    fn vm() -> Vm {
        let cp = ClassPath::new();
        define_core_classes(&cp);
        Vm::new("test", &HeapConfig::small(), cp).unwrap()
    }

    #[test]
    fn string_roundtrip_and_hash() {
        let mut vm = vm();
        let s = vm.new_string("hello skyway").unwrap();
        assert_eq!(vm.read_string(s).unwrap(), "hello skyway");
        // Java's "hello skyway".hashCode() analogue is deterministic.
        let h1 = vm.string_hash(s).unwrap();
        let s2 = vm.new_string("hello skyway").unwrap();
        assert_eq!(h1, vm.string_hash(s2).unwrap());
    }

    #[test]
    fn unicode_string_roundtrip() {
        let mut vm = vm();
        let s = vm.new_string("héllo — 細かい ✓").unwrap();
        assert_eq!(vm.read_string(s).unwrap(), "héllo — 細かい ✓");
    }

    #[test]
    fn long_arrays_check_their_class_once() {
        let mut vm = vm();
        let longs = vm.load_class("[J").unwrap();
        let arr = vm.new_long_array(longs, &[i64::MIN, 0, -1]).unwrap();
        assert_eq!(vm.read_long_array(arr, longs).unwrap(), vec![i64::MIN, 0, -1]);
        let ints = vm.load_class("[I").unwrap();
        assert!(matches!(vm.new_long_array(ints, &[1]), Err(Error::NotAnArray(_))));
        assert!(matches!(vm.read_long_array(arr, ints), Err(Error::NotAnArray(_))));
        let other = vm.alloc_array(ints, 2).unwrap();
        assert!(matches!(vm.read_long_array(other, longs), Err(Error::HandleMismatch { .. })));
        assert!(matches!(vm.read_long_array(Addr::NULL, longs), Err(Error::BadAddress(0))));
    }

    #[test]
    fn boxed_values() {
        let mut vm = vm();
        let i = vm.new_integer(-42).unwrap();
        assert_eq!(vm.get_int(i, "value").unwrap(), -42);
        let l = vm.new_long(i64::MIN).unwrap();
        assert_eq!(vm.get_long(l, "value").unwrap(), i64::MIN);
    }

    #[test]
    fn list_grows() {
        let mut vm = vm();
        let list = vm.new_list(2).unwrap();
        let h = vm.handle(list);
        for i in 0..50 {
            let e = vm.new_integer(i).unwrap();
            let list = vm.resolve(h).unwrap();
            vm.list_push(list, e).unwrap();
        }
        let list = vm.resolve(h).unwrap();
        assert_eq!(vm.list_len(list).unwrap(), 50);
        for i in 0..50 {
            let e = vm.list_get(list, i).unwrap();
            assert_eq!(vm.get_int(e, "value").unwrap(), i as i32);
        }
        assert!(vm.list_get(list, 50).is_err());
    }

    #[test]
    fn map_put_get_replace() {
        let mut vm = vm();
        let map = vm.new_hash_map(8).unwrap();
        let mh = vm.handle(map);
        let k1 = vm.new_string("k1").unwrap();
        let k1h = vm.handle(k1);
        let v1 = vm.new_integer(1).unwrap();
        let map = vm.resolve(mh).unwrap();
        let k1 = vm.resolve(k1h).unwrap();
        assert!(vm.map_put(map, k1, v1).unwrap());
        assert_eq!(vm.map_len(map).unwrap(), 1);
        let got = vm.map_get(map, k1).unwrap().unwrap();
        assert_eq!(vm.get_int(got, "value").unwrap(), 1);
        // Replace by identical key.
        let v2 = vm.new_integer(2).unwrap();
        let map = vm.resolve(mh).unwrap();
        let k1 = vm.resolve(k1h).unwrap();
        assert!(!vm.map_put(map, k1, v2).unwrap());
        assert_eq!(vm.map_len(map).unwrap(), 1);
        // A *different* string object with equal content is a different
        // identity key.
        let k1b = vm.new_string("k1").unwrap();
        let map = vm.resolve(mh).unwrap();
        assert!(vm.map_get(map, k1b).unwrap().is_none());
    }

    #[test]
    fn map_consistency_and_rehash() {
        let mut vm = vm();
        let map = vm.new_hash_map(16).unwrap();
        let mh = vm.handle(map);
        let mut keys = Vec::new();
        for i in 0..20 {
            let k = vm.new_integer(i).unwrap();
            keys.push(vm.handle(k));
            let v = vm.new_integer(i * 10).unwrap();
            let map = vm.resolve(mh).unwrap();
            let k = vm.resolve(*keys.last().unwrap()).unwrap();
            vm.map_put(map, k, v).unwrap();
        }
        let map = vm.resolve(mh).unwrap();
        assert!(vm.map_is_consistent(map).unwrap());
        // Simulate a conventional deserializer scrambling identity hashes:
        // zero out the cached hash of one key and give it a fresh one.
        let k0 = vm.resolve(keys[0]).unwrap();
        let m = vm.heap().arena().load_word(k0.0).unwrap();
        vm.heap().arena().store_word(k0.0, crate::layout::mark::with_hash(m, 0)).unwrap();
        vm.identity_hash(k0).unwrap();
        let map = vm.resolve(mh).unwrap();
        // Very likely inconsistent now (hash changed); rehash must fix it.
        vm.map_rehash(map).unwrap();
        assert!(vm.map_is_consistent(map).unwrap());
        assert_eq!(vm.map_len(map).unwrap(), 20);
    }
}
