// TB006 clean fixture: every construction site names its durability —
// a literal mode, a threaded `mode` binding, or a config `durability`
// field, including one with nested call parentheses in the sink argument.
fn open_strict(sink: Box<dyn WalSink>) -> Result<TxnWal> {
    TxnWal::create(sink, DurabilityMode::Strict)
}

fn open_from_opts(sink: Box<dyn WalSink>, opts: &LogOptions) -> Result<TxnWal> {
    TxnWal::create(sink, opts.mode)
}

fn open_from_config(buf: SharedBuf, plan: FaultPlan, cfg: &BenchConfig) -> Result<TxnWal> {
    TxnWal::create(Box::new(FaultyWriter::new(buf, plan)), cfg.durability)
}
