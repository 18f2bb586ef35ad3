"""Matrix input/output formats."""

from __future__ import annotations

import pytest

from dynkin import MatrixParseError, MatrixValidationError, parse_matrix_input, validate_gcm
from dynkin.parsing import format_matrix_text, parse_matrix_json, parse_matrix_text


class TestTextFormat:
    def test_basic(self):
        A = parse_matrix_text("2 -1\n-3 2\n")
        assert A.rows == ((2, -1), (-3, 2))

    def test_comments_and_blank_lines(self):
        text = "# affine example\n\n 2 -1\n\n-4  2\n# trailing note\n"
        assert parse_matrix_text(text).rows == ((2, -1), (-4, 2))

    def test_bad_token_reports_line(self):
        with pytest.raises(MatrixParseError, match="line 2"):
            parse_matrix_text("2 -1\n-x 2\n")

    def test_huge_token_is_clipped_in_message(self):
        token = "9" * 5000
        with pytest.raises(MatrixParseError, match=r"\.\.\. \(5000 characters\)") as info:
            parse_matrix_text(f"2 {token}\n-1 2\n")
        assert len(str(info.value)) < 200

    def test_empty_input(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("# nothing here\n")

    def test_axiom_violations_bubble_up(self):
        with pytest.raises(MatrixValidationError):
            parse_matrix_text("2 -1\n-1 3\n")


class TestJsonFormat:
    def test_bare_array(self):
        assert parse_matrix_json("[[2, -1], [-1, 2]]").rows == ((2, -1), (-1, 2))

    def test_object_with_matrix_key(self):
        assert parse_matrix_json('{"matrix": [[2]]}').rows == ((2,),)

    def test_rejects_missing_key(self):
        with pytest.raises(MatrixParseError, match="matrix"):
            parse_matrix_json('{"rows": [[2]]}')

    def test_rejects_floats(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_json("[[2.0]]")

    def test_rejects_invalid_json(self):
        with pytest.raises(MatrixParseError, match="invalid JSON"):
            parse_matrix_json("[[2,")


class TestSniffing:
    def test_json_detected(self):
        assert parse_matrix_input(' [[2, -2], [-2, 2]]').rank == 2
        assert parse_matrix_input('{"matrix": [[2]]}').rank == 1

    def test_text_detected(self):
        assert parse_matrix_input("2 -1\n-1 2").rank == 2


class TestFormatting:
    def test_round_trip(self):
        A = validate_gcm([[2, -1, 0], [-1, 2, -10], [0, -1, 2]])
        assert parse_matrix_text(format_matrix_text(A)) == A

    def test_alignment(self):
        text = format_matrix_text(validate_gcm([[2, -10], [-1, 2]]))
        assert text == "  2 -10\n -1   2"
