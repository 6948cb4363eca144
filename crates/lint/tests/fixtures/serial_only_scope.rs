//! Fixture: a `// ctx: serial-only` fn called from the job closure of a
//! `pool::scope` (worker context) and from its body closure (serial
//! context, the thread that owns the pool).

pub struct Ledger;

impl Ledger {
    // ctx: serial-only
    pub fn fold(&mut self, x: u64) {
        let _ = x;
    }
}

pub fn job_closure_escape(shared: &mut Ledger, own: &mut Ledger) {
    pool::scope(
        2,
        |_, j: u64| shared.fold(j),
        |pool| {
            own.fold(1);
            pool.run(vec![1u64, 2])
        },
    );
}

pub fn body_closure_is_serial(own: &mut Ledger) {
    pool::scope(
        2,
        |_, (a, b): (u64, u64)| a + b,
        |pool| {
            own.fold(2);
            pool.run(vec![(1u64, 2u64)])
        },
    );
}
