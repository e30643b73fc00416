//! The in-process workloads: SmallBank and sibench, issued call by call.
//!
//! `ssi_workloads::Workload::execute_one` runs a whole transaction behind
//! one call, which hides the calls into `ssi-core` from the tracer. So the
//! programs are issued here, with the programs, key layout and mix of
//! `ssi-workloads` (`smallbank.rs`, `sibench.rs`); that crate's loaders and
//! checks are reused as they are.

use std::ops::Bound;

use ssi_common::encoding::{decode_i64, encode_i64, KeyBuilder};
use ssi_common::rng::WorkloadRng;
use ssi_core::{Database, Error, IsolationLevel, Options, TableRef, Transaction};
use ssi_workloads::smallbank::{SmallBankConfig, TXN_AMALGAMATE, TXN_BALANCE};
use ssi_workloads::smallbank::{TXN_DEPOSIT_CHECKING, TXN_TRANSACT_SAVINGS};
use ssi_workloads::{SiBench, SmallBank};

use crate::runner::{Outcome, Workload};
use crate::trace::{Name, Tracer};

/// Background GC cadence of every workload.
pub const GC_INTERVAL_MS: u64 = 10;

pub fn engine_options(isolation: IsolationLevel) -> Options {
    Options::default()
        .with_isolation(isolation)
        .with_background_gc(std::time::Duration::from_millis(GC_INTERVAL_MS))
}

/// Maps an engine error to an attempt outcome.
pub fn classify(e: &Error) -> Outcome {
    if !e.is_retryable() {
        Outcome::Fatal(e.to_string())
    } else if e.abort_kind().is_some() {
        Outcome::Aborted
    } else {
        Outcome::Error
    }
}

/// Seed of client `index`'s input generator.
pub fn client_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(64).wrapping_add(index as u64)
}

// ---- SmallBank -------------------------------------------------------------

fn name_of(customer: u64) -> String {
    format!("customer{customer:08}")
}

fn account_key(customer: u64) -> Vec<u8> {
    KeyBuilder::new().str(&name_of(customer)).build()
}

fn balance_key(customer: u64) -> Vec<u8> {
    KeyBuilder::new().u64(customer).build()
}

/// One SmallBank program with its drawn inputs.
pub enum SbOp {
    Balance(u64),
    DepositChecking(u64, i64),
    TransactSavings(u64, i64),
    Amalgamate(u64, u64),
    WriteCheck(u64, i64),
}

enum OpError {
    /// TransactSavings refused an overdraft: the program rolls back.
    Refused,
    Engine(Error),
}

impl From<Error> for OpError {
    fn from(e: Error) -> Self {
        OpError::Engine(e)
    }
}

pub struct SmallBankBench {
    db: Database,
    bank: SmallBank,
    account: TableRef,
    savings: TableRef,
    checking: TableRef,
    seed: u64,
}

pub struct SbClient {
    rng: WorkloadRng,
    /// Net change to the total balance made by this client's commits.
    ledger: i64,
}

impl SmallBankBench {
    pub fn setup(isolation: IsolationLevel, seed: u64) -> Result<Self, String> {
        let db = Database::try_open(engine_options(isolation)).map_err(|e| e.to_string())?;
        let bank = SmallBank::setup(&db, SmallBankConfig::default());
        let table = |name: &str| db.table(name).map_err(|e| e.to_string());
        Ok(SmallBankBench {
            account: table("account")?,
            savings: table("savings")?,
            checking: table("checking")?,
            bank,
            db,
            seed,
        })
    }

    fn customers(&self) -> u64 {
        self.bank.config().customers
    }

    /// The output checks: the money ledger, and at SSI no negative savings.
    pub fn check(&self, clients: &[SbClient], serializable: bool) -> Vec<String> {
        let config = self.bank.config();
        let initial = (config.customers * 2) as i64 * config.initial_balance;
        let expected = initial + clients.iter().map(|c| c.ledger).sum::<i64>();
        let total = self.bank.total_balance(&self.db);
        let mut failures = Vec::new();
        if total != expected {
            failures.push(format!(
                "ledger: total balance {total} != initial {initial} + committed deltas = {expected}"
            ));
        }
        let negative = self.bank.negative_savings_accounts(&self.db);
        if serializable && negative > 0 {
            failures.push(format!("{negative} negative savings accounts at SSI"));
        }
        failures
    }

    fn lookup(&self, txn: &mut Transaction, t: &mut Tracer, customer: u64) -> Result<u64, Error> {
        let key = account_key(customer);
        let v = t.call(Name::CoreGet, || txn.get(&self.account, &key))?;
        Ok(
            v.map(|v| u64::from_be_bytes(v[..].try_into().expect("8-byte customer id")))
                .unwrap_or(customer),
        )
    }

    fn read(
        &self,
        txn: &mut Transaction,
        t: &mut Tracer,
        table: &TableRef,
        id: u64,
    ) -> Result<i64, Error> {
        let key = balance_key(id);
        let v = t.call(Name::CoreGet, || txn.get(table, &key))?;
        Ok(v.map(|v| decode_i64(&v)).unwrap_or(0))
    }

    fn write(
        &self,
        txn: &mut Transaction,
        t: &mut Tracer,
        table: &TableRef,
        id: u64,
        balance: i64,
    ) -> Result<(), Error> {
        let (key, value) = (balance_key(id), encode_i64(balance));
        t.call(Name::CorePut, || txn.put(table, &key, &value))
    }

    /// Runs the program; returns its change to the total balance.
    fn program(&self, txn: &mut Transaction, t: &mut Tracer, op: &SbOp) -> Result<i64, OpError> {
        let (sav, chk) = (&self.savings, &self.checking);
        Ok(match *op {
            SbOp::Balance(c) => {
                let id = self.lookup(txn, t, c)?;
                self.read(txn, t, sav, id)?;
                self.read(txn, t, chk, id)?;
                0
            }
            SbOp::DepositChecking(c, amount) => {
                let id = self.lookup(txn, t, c)?;
                let balance = self.read(txn, t, chk, id)?;
                self.write(txn, t, chk, id, balance + amount)?;
                amount
            }
            SbOp::TransactSavings(c, amount) => {
                let id = self.lookup(txn, t, c)?;
                let balance = self.read(txn, t, sav, id)?;
                if balance + amount < 0 {
                    return Err(OpError::Refused);
                }
                self.write(txn, t, sav, id, balance + amount)?;
                amount
            }
            SbOp::Amalgamate(c1, c2) => {
                let id1 = self.lookup(txn, t, c1)?;
                let id2 = self.lookup(txn, t, c2)?;
                let total = self.read(txn, t, sav, id1)? + self.read(txn, t, chk, id1)?;
                let dest = self.read(txn, t, chk, id2)?;
                self.write(txn, t, chk, id2, dest + total)?;
                self.write(txn, t, sav, id1, 0)?;
                self.write(txn, t, chk, id1, 0)?;
                // Moving money to oneself zeroes both accounts.
                if id1 == id2 {
                    -total
                } else {
                    0
                }
            }
            SbOp::WriteCheck(c, amount) => {
                let id = self.lookup(txn, t, c)?;
                let combined = self.read(txn, t, sav, id)? + self.read(txn, t, chk, id)?;
                let checking = self.read(txn, t, chk, id)?;
                let charge = if combined < amount {
                    amount + 100
                } else {
                    amount
                };
                self.write(txn, t, chk, id, checking - charge)?;
                -charge
            }
        })
    }
}

impl Workload for SmallBankBench {
    type Client = SbClient;
    type Input = SbOp;

    fn client(&self, index: usize) -> Result<SbClient, String> {
        Ok(SbClient {
            rng: WorkloadRng::new(client_seed(self.seed, index)),
            ledger: 0,
        })
    }

    /// The draws of `SmallBank::run_random_op`, in its order.
    fn next_input(&self, c: &mut SbClient) -> SbOp {
        let customer = c.rng.uniform(0, self.customers() - 1);
        let amount = c.rng.uniform(1, 100) as i64;
        match c.rng.index(5) {
            TXN_BALANCE => SbOp::Balance(customer),
            TXN_DEPOSIT_CHECKING => SbOp::DepositChecking(customer, amount),
            TXN_TRANSACT_SAVINGS => {
                let signed = if c.rng.chance(0.5) { amount } else { -amount };
                SbOp::TransactSavings(customer, signed)
            }
            TXN_AMALGAMATE => {
                let other = c.rng.uniform(0, self.customers() - 1);
                SbOp::Amalgamate(customer, other)
            }
            _ => SbOp::WriteCheck(customer, amount),
        }
    }

    fn attempt(&self, c: &mut SbClient, op: &SbOp, t: &mut Tracer) -> Outcome {
        let mut txn = t.call(Name::CoreBegin, || self.db.begin());
        match self.program(&mut txn, t, op) {
            Ok(delta) => match t.call(Name::CoreCommit, || txn.commit()) {
                Ok(()) => {
                    c.ledger += delta;
                    Outcome::Committed
                }
                Err(e) => {
                    t.commit_failed();
                    classify(&e)
                }
            },
            Err(OpError::Refused) => {
                txn.rollback();
                Outcome::AppRollback
            }
            Err(OpError::Engine(e)) => classify(&e),
        }
    }

    fn db(&self) -> &Database {
        &self.db
    }
}

// ---- sibench ---------------------------------------------------------------

pub const SIBENCH_ROWS: u64 = 100;
pub const SIBENCH_QUERIES_PER_UPDATE: u64 = 10;

pub enum SiOp {
    Query,
    Update(u64),
}

pub struct SiBenchBench {
    db: Database,
    bench: SiBench,
    table: TableRef,
    seed: u64,
}

pub struct SiClient {
    rng: WorkloadRng,
    updates: i64,
    bad_queries: u64,
}

impl SiBenchBench {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let db = Database::try_open(engine_options(
            IsolationLevel::SerializableSnapshotIsolation,
        ))
        .map_err(|e| e.to_string())?;
        let bench = SiBench::setup(&db, SIBENCH_ROWS, SIBENCH_QUERIES_PER_UPDATE as u32);
        let table = db.table("sibench").map_err(|e| e.to_string())?;
        Ok(SiBenchBench {
            db,
            bench,
            table,
            seed,
        })
    }

    /// `total_value` counts every committed update, warm-up included, and
    /// every query saw all rows and returned a valid id.
    pub fn check(&self, clients: &[SiClient]) -> Vec<String> {
        let mut failures = Vec::new();
        let updates: i64 = clients.iter().map(|c| c.updates).sum();
        let total = self.bench.total_value(&self.db);
        if total != updates {
            failures.push(format!(
                "total_value {total} != {updates} committed updates"
            ));
        }
        let bad: u64 = clients.iter().map(|c| c.bad_queries).sum();
        if bad > 0 {
            failures.push(format!("{bad} queries returned no valid id"));
        }
        failures
    }

    fn query(&self, c: &mut SiClient, t: &mut Tracer) -> Result<(), Error> {
        let mut txn = t.call(Name::CoreBegin, || self.db.begin_read_only());
        let rows = t.call(Name::CoreScan, || {
            txn.scan(&self.table, Bound::Unbounded, Bound::Unbounded)
        })?;
        t.scanned(rows.len());
        let min = rows
            .iter()
            .min_by_key(|(_, v)| decode_i64(v))
            .and_then(|(k, _)| <[u8; 8]>::try_from(k.as_slice()).ok())
            .map(u64::from_be_bytes);
        let valid = rows.len() as u64 == self.bench.items()
            && matches!(min, Some(id) if id < self.bench.items());
        t.call(Name::CoreCommit, || txn.commit())
            .inspect_err(|_| t.commit_failed())?;
        if !valid {
            c.bad_queries += 1;
        }
        Ok(())
    }

    fn update(&self, c: &mut SiClient, t: &mut Tracer, id: u64) -> Result<(), Error> {
        let key = id.to_be_bytes();
        let mut txn = t.call(Name::CoreBegin, || self.db.begin());
        let current = t
            .call(Name::CoreGetForUpdate, || {
                txn.get_for_update(&self.table, &key)
            })?
            .map(|v| decode_i64(&v))
            .unwrap_or(0);
        let value = encode_i64(current + 1);
        t.call(Name::CorePut, || txn.put(&self.table, &key, &value))?;
        t.call(Name::CoreCommit, || txn.commit())
            .inspect_err(|_| t.commit_failed())?;
        c.updates += 1;
        Ok(())
    }
}

impl Workload for SiBenchBench {
    type Client = SiClient;
    type Input = SiOp;

    fn client(&self, index: usize) -> Result<SiClient, String> {
        Ok(SiClient {
            rng: WorkloadRng::new(client_seed(self.seed, index)),
            updates: 0,
            bad_queries: 0,
        })
    }

    /// The draws of `SiBench::execute_one`: q of every q + 1 are queries.
    fn next_input(&self, c: &mut SiClient) -> SiOp {
        let q = SIBENCH_QUERIES_PER_UPDATE;
        if c.rng.uniform(0, q) < q {
            SiOp::Query
        } else {
            SiOp::Update(c.rng.uniform(0, self.bench.items() - 1))
        }
    }

    fn attempt(&self, c: &mut SiClient, op: &SiOp, t: &mut Tracer) -> Outcome {
        let result = match *op {
            SiOp::Query => self.query(c, t),
            SiOp::Update(id) => self.update(c, t, id),
        };
        match result {
            Ok(()) => Outcome::Committed,
            Err(e) => classify(&e),
        }
    }

    fn db(&self) -> &Database {
        &self.db
    }
}
