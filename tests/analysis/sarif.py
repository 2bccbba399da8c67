"""SARIF 2.1.0 structural oracle for the dataflow and check suites."""

from repro.errors import AnalysisError


def validate_sarif(payload: dict) -> None:
    """Structural check of the SARIF fields the spec requires.

    Raises :class:`AnalysisError` on the first violation; the dataflow
    and check suites round-trip every emitted payload through this.
    """
    def need(condition: bool, what: str) -> None:
        if not condition:
            raise AnalysisError(f"SARIF payload invalid: {what}")

    need(isinstance(payload, dict), "top level must be an object")
    need(payload.get("version") == "2.1.0", "version must be '2.1.0'")
    runs = payload.get("runs")
    need(isinstance(runs, list) and runs, "runs must be a non-empty list")
    for run in runs:
        driver = run.get("tool", {}).get("driver", {})
        need(isinstance(driver.get("name"), str) and driver["name"],
             "tool.driver.name must be a non-empty string")
        for rule in driver.get("rules", []):
            need(isinstance(rule.get("id"), str) and rule["id"],
                 "every rule needs a string id")
        need(isinstance(run.get("results"), list), "results must be a list")
        for result in run["results"]:
            need(isinstance(result.get("ruleId"), str),
                 "every result needs a ruleId")
            need(result.get("level") in ("none", "note", "warning", "error"),
                 "result.level must be a SARIF level")
            need(isinstance(result.get("message", {}).get("text"), str),
                 "every result needs message.text")
            for loc in result.get("locations", []):
                physical = loc.get("physicalLocation", {})
                need(isinstance(
                    physical.get("artifactLocation", {}).get("uri"), str),
                    "physicalLocation needs artifactLocation.uri")
                region = physical.get("region", {})
                need(isinstance(region.get("startLine"), int)
                     and region["startLine"] >= 1,
                     "region.startLine must be a positive integer")
