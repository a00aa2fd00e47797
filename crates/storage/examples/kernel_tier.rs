//! Prints which instantiation of the `BitVec` word kernels this CPU selects
//! (`portable`, `popcnt` or `avx512-vpopcntdq`); CI logs it beside the
//! benchmark's wall-clock numbers.

fn main() {
    println!("{}", fsm_storage::bitvec::kernel_tier());
}
