// TB007 clean fixture: writes go through the MVCC transaction (archive
// ops via `buffer`), reads and commits stay legal on the engine, and
// `insert` on a non-engine receiver (a map) does not fire.
fn serve(mgr: &TxnManager, id: TableId, k: &Key, op: &Op) -> Result<()> {
    let mut txn = mgr.begin()?;
    txn.insert(id, simple_row(7, 70), None)?;
    txn.update(id, k, &[(1, Value::Int(8))], None)?;
    txn.buffer(op)?;
    txn.commit()?;
    Ok(())
}

fn observe(engine: &dyn BitemporalEngine, id: TableId) -> Result<usize> {
    let out = engine.scan(id, &SysSpec::Current, &AppSpec::All, &[])?;
    let mut seen = BTreeMap::new();
    seen.insert(id, out.rows.len());
    Ok(out.rows.len())
}
