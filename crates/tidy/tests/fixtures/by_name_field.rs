// Fixture: by-name-field-in-app must fire on lines 6 and 7 — and not on
// the handle accessors, a non-field `get_` call, the tagged line, or
// anything inside #[cfg(test)].

pub fn bad(vm: &mut Vm, r: Addr, h: FieldHandle, m: &Map) -> i64 {
    let a = vm.get_long(r, "src").unwrap_or(0);
    vm.set_int(
        r,
        "count",
        1,
    )
    .ok();
    let b = vm.long_field(r, h).unwrap_or(0);
    let _c = m.get_mut("key");
    let _d = vm.get_int(r, name_of(h));
    let _tagged = vm.get_ref(r, "next"); // tidy:allow(by-name-field-in-app, fixture exception)
    a + b
}

#[cfg(test)]
mod tests {
    fn by_name_in_tests_is_fine(vm: &Vm, r: Addr) {
        let _ = vm.get_long(r, "src");
    }
}
