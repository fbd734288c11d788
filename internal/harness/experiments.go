package harness

// Experiment is one table or figure of the evaluation: the id CLIs select it
// by, and the function that renders it from a suite's memoised measurements.
type Experiment struct {
	ID    string
	Table func(*Suite) (string, error)
}

// Experiments is the registry of everything the evaluation regenerates, in
// the paper's order. It is the only list of experiment ids: ppftables
// iterates it, builds its -exp help from it, and DESIGN.md §6 is tested
// against it. A new experiment is one entry here plus its rows function and
// renderer.
var Experiments = []Experiment{
	{ID: "table1", Table: func(s *Suite) (string, error) { return Table1(s.Opt), nil }},
	{ID: "table2", Table: func(*Suite) (string, error) { return Table2(), nil }},
	table("fig7", (*Suite).Fig7, FormatFig7),
	table("fig8a", (*Suite).Fig8, FormatFig8),
	table("fig8b", (*Suite).Fig8, FormatFig8),
	table("fig9a", (*Suite).Fig9a, FormatFig9a),
	table("fig9b", (*Suite).Fig9b, FormatFig9b),
	table("fig10", (*Suite).Fig10, FormatFig10),
	table("fig11", (*Suite).Fig11, FormatFig11),
	table("fig12", (*Suite).Fig12, FormatFig12),
	table("instrs", (*Suite).InstrOverhead, FormatInstrOverhead),
	table("extramem", (*Suite).ExtraMem, FormatExtraMem),
	table("ablation", (*Suite).Ablations, FormatAblations),
	table("ctxswitch", (*Suite).ContextSwitches, FormatContextSwitches),
}

// table builds an Experiment from a typed rows function and its renderer.
func table[R any](id string, rows func(*Suite) (R, error), format func(R) string) Experiment {
	return Experiment{ID: id, Table: func(s *Suite) (string, error) {
		r, err := rows(s)
		if err != nil {
			return "", err
		}
		return format(r), nil
	}}
}
