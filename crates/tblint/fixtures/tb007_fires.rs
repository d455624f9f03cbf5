// TB007 firing fixture: production code driving engine DML directly —
// one bare `engine` receiver, one `*_engine` binding, one histgen
// `apply_op` call. All bypass the MVCC commit path (no snapshot
// validation, no WAL record).
fn seed(engine: &mut dyn BitemporalEngine, id: TableId) -> Result<()> {
    engine.insert(id, simple_row(1, 10), None)?;
    Ok(())
}

fn patch(base_engine: &mut dyn BitemporalEngine, id: TableId, k: &Key, op: &Op) -> Result<()> {
    base_engine.update(id, k, &[(1, Value::Int(2))], None)?;
    bitempo_histgen::apply_op(base_engine, &[id], op)?;
    Ok(())
}
