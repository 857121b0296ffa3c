"""tools/surface.py, the source-size counter, on a small fixture package."""

import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FIXTURE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    from dataclasses import dataclass, field

    # a comment line


    @dataclass
    class Config:
        """One line."""

        d: str = field(repr=False)
        e: float
        a: int = 1  # a trailing comment
        b: list = field(default_factory=list)
        c: int = field(init=False, default=0)


    class Plain:
        x: int = 3

        def method(self, y=2):
            return y


    def public(a, b=1, *, c=2, d=None):
        """Docstring."""
        text = """a string that is
        not a docstring"""
        return a, b, c, d, text


    def _private(a=1):
        return a
''')


_spec = importlib.util.spec_from_file_location("surface", ROOT / "tools" / "surface.py")
surface = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(surface)


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # from, @dataclass, class, d, e, a, b, c, class Plain, x, def method,
    # return y, def public, text (2 lines), return, def _private, return
    assert surface.code_lines(FIXTURE) == 18


def test_optional_values_are_public_defaults_and_dataclass_defaults():
    # Config's a and b (c is not an __init__ parameter, d and e have no
    # default), public's b, c and d; not Plain (no dataclass), not the
    # method, not _private
    assert surface.optional_values(FIXTURE) == 5


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert surface.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["a.py", "18", "lines", "5", "values"],
        ["b.py", "1", "lines", "0", "values"],
        ["total", "19", "lines", "5", "values"],
    ]


def test_optional_value_names_name_each_value():
    assert surface.optional_value_names(FIXTURE) == [
        "Config.a", "Config.b", "public.b", "public.c", "public.d",
    ]


def test_package_optional_values_are_pinned():
    # Every optional value a caller can set, per module. TrainConfig is the
    # one home of the training defaults; a new knob is an edit here.
    package = ROOT / "src" / "deepkm"
    found = {path.stem: surface.optional_value_names(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert found == {
        "__init__": [],
        "__main__": [],
        "cli": ["emit_report.suite", "main.argv"],
        "clustering": ["kmeans.max_iters", "kmeans.tol"],
        "data": [
            "integer_labels.what", "Dataset.labels", "Dataset.name", "load_idx.labels_path",
            "save_idx.labels_path", "concat_datasets.name",
            "load_delimited.delimiter", "load_delimited.label_column",
            "load_delimited.skip_header", "load_delimited.minmax_scale", "load_delimited.name",
        ],
        "harness": [
            "TrainConfig.method", "TrainConfig.k", "TrainConfig.seed",
            "TrainConfig.pretrain_epochs", "TrainConfig.finetune_epochs",
            "TrainConfig.batch_size", "TrainConfig.lam", "TrainConfig.alpha",
            "TrainConfig.latent_dim", "TrainConfig.hidden_dims", "TrainConfig.optimizer",
            "TrainConfig.learning_rate", "TrainConfig.kmeans_max_iters", "TrainConfig.kmeans_tol",
            "run_method.on_batch",
        ],
        "losses": ["reconstruction_loss.out"],
        "metrics": [],
        "nn": ["backward.grad_latent"],
    }
