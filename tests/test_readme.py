"""The README's param tables must list exactly what the task registry declares."""

from pathlib import Path

from kirchhoff_spectral import functions, scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def table_rows(first_header):
    """Cells of each body row of the README table whose first header is given."""
    lines = README.read_text(encoding="utf-8").splitlines()
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("|") and cells[i][0] == first_header)
    end = next((i for i in range(start, len(lines)) if not lines[i].startswith("|")),
               len(lines))
    return cells[start + 2:end]  # past the header and its rule


def test_task_table_lists_each_tasks_functions_and_params():
    listed_functions = {}
    listed_params = set()
    task = None
    for row in table_rows("task"):
        if row[0]:
            task = row[0].strip("`")
            # "m; phi optional": the needed functions come before the ";"
            listed_functions[task] = {f.strip() for f in row[1].split(";")[0].split(",")}
        param = row[2]
        if param:  # a task without params has an empty cell
            listed_params.add((task, param.strip("*"), param.startswith("**")))
    assert listed_functions == {
        name: set(entry.functions) for name, entry in scenario.TASKS.items()
    }
    assert listed_params == {
        (name, key, default is scenario.REQUIRED)
        for name, entry in scenario.TASKS.items()
        for key, (default, _, _) in entry.params.items()
    }


def test_integrator_table_lists_each_integrator_param():
    listed = [row[0] for row in table_rows("integrator param")]
    assert sorted(listed) == sorted(scenario._INTEGRATOR_PARAMS)


def test_function_kind_table_lists_each_kinds_declaration():
    listed = {}
    for kind, params, base, knots in table_rows("kind"):
        declared = {} if params == "none" else dict(
            (name.strip("`"), rule) for name, rule in (p.split() for p in params.split(", ")))
        listed[kind.strip("`")] = (declared, base == "yes", knots == "yes")
    assert listed == {
        kind: (dict(decl.params), decl.base, decl.knots is not None)
        for kind, decl in functions.KINDS.items()
    }
    assert [row[0] for row in table_rows("rule")] == list(functions.RULES)
