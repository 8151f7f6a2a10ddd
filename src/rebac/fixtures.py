"""Built-in demonstration workspaces.

Three classic policy idioms expressed as path conditions:

* ``unix``: owner / group / world discretionary access,
* ``rbac``: role-based access with an optional role hierarchy and
  direct user-permission exceptions,
* ``corporate``: a project-centric organisation whose folder trees,
  supervision chains and client relationships drive the policy.  This
  is the fixture the instrumented evaluation scripts run against.

Each fixture is data: record tuples written into a workspace document by
:func:`rebac.workspace.document` and read back by ``loads_workspace``, so
a fixture passes the same checks as a workspace file.
"""

from __future__ import annotations

import json

from .workspace import Workspace, document, loads_workspace

__all__ = ["FIXTURES", "unix_workspace", "rbac_workspace", "corporate_workspace"]


def _load(name: str, **contents) -> Workspace:
    return loads_workspace(json.dumps(document(**contents)), source=f"<fixture {name}>")


def unix_workspace() -> Workspace:
    """Owner/group/world, resolved with FirstMatch.

    alice owns file1 and shares the staff group with bob; the group has
    access to file1; carol is unrelated and falls through to the
    catch-all world rule.
    """
    return _load(
        "unix",
        types=["user", "group", "object"],
        labels=["uo", "ug", "go"],
        permissible=[
            ("user", "object", "uo"),
            ("user", "group", "ug"),
            ("group", "object", "go"),
        ],
        entities=[
            ("alice", "user"),
            ("bob", "user"),
            ("carol", "user"),
            ("staff", "group"),
            ("file1", "object"),
            ("file2", "object"),
        ],
        edges=[
            ("alice", "file1", "uo"),
            ("bob", "file2", "uo"),
            ("alice", "staff", "ug"),
            ("bob", "staff", "ug"),
            ("staff", "file1", "go"),
        ],
        pms="FirstMatch",
        principal_rules=[("uo", "owner"), ("ug . go", "group"), ("TOP", "world")],
        auth_rules=[
            ("owner", "*", "read", True),
            ("owner", "*", "write", True),
            ("group", "*", "read", True),
            ("world", "*", "read", False),
        ],
        crs="FirstMatch",
        requests=[
            ("alice", "file1", "read"),
            ("bob", "file1", "read"),
            ("carol", "file1", "read"),
            ("bob", "file1", "write"),
        ],
    )


def rbac_workspace() -> Workspace:
    """Role-based access with a role hierarchy and a direct exception.

    Permissions are entities, and requests name the permission they want
    to exercise as their object.  Principals carry the permission's
    name; the authorization rules pin each principal to its own
    permission entity, which is what keeps decisions correct even though
    a user-role-permission chain condition cannot itself distinguish
    which permission it ended at.

    alice holds engineer directly; bob holds manager, which sits above
    engineer in the hierarchy; carol holds nothing but has a direct
    grant of approve-release.
    """
    return _load(
        "rbac",
        types=["user", "role", "permission"],
        labels=["ua", "pa", "rr", "up"],
        permissible=[
            ("user", "role", "ua"),
            ("role", "permission", "pa"),
            ("role", "role", "rr"),
            ("user", "permission", "up"),
        ],
        entities=[
            ("alice", "user"),
            ("bob", "user"),
            ("carol", "user"),
            ("engineer", "role"),
            ("manager", "role"),
            ("commit-code", "permission"),
            ("approve-release", "permission"),
        ],
        edges=[
            ("alice", "engineer", "ua"),
            ("bob", "manager", "ua"),
            ("manager", "engineer", "rr"),
            ("engineer", "commit-code", "pa"),
            ("manager", "approve-release", "pa"),
            ("carol", "approve-release", "up"),
        ],
        pms="AllMatch",
        principal_rules=[
            ("ua . pa", "commit-code"),
            ("ua . pa", "approve-release"),
            ("ua . rr+ . pa", "commit-code"),
            ("ua . rr+ . pa", "approve-release"),
            ("up", "commit-code"),
            ("up", "approve-release"),
        ],
        auth_rules=[
            ("commit-code", "commit-code", "commit", True),
            ("approve-release", "approve-release", "approve", True),
        ],
        crs="FirstMatch",
        requests=[
            ("alice", "commit-code", "commit"),
            ("bob", "commit-code", "commit"),
            ("bob", "approve-release", "approve"),
            ("carol", "approve-release", "approve"),
            ("carol", "commit-code", "commit"),
        ],
    )


def corporate_workspace() -> Workspace:
    """The project-organisation example with its full policy.

    Two projects run by a technical and a sales team under a small
    executive layer; each project has a folder tree for working documents
    and a deliverables folder; printers attach to a team and a project; an
    external client group is client of Proj.#1 and of its sales contact.

    Evaluated with AllMatch principal matching, FirstMatch conflict
    resolution and a system-wide deny default.  The request list holds
    the five walkthrough requests the test suite pins down.
    """
    return _load(
        "corporate",
        types=["User", "Group", "Project", "Folder", "File", "Printer"],
        labels=["Client-of", "Deliverable-for", "Member-of", "Participant-of", "Resource-for", "Supervises"],
        permissible=[
            ("Group", "Project", "Client-of"),
            ("Group", "User", "Client-of"),
            ("File", "Project", "Deliverable-for"),
            ("Folder", "Project", "Deliverable-for"),
            ("File", "Folder", "Member-of"),
            ("Folder", "Folder", "Member-of"),
            ("User", "Group", "Member-of"),
            ("User", "Project", "Participant-of"),
            ("File", "Project", "Resource-for"),
            ("Folder", "Project", "Resource-for"),
            ("Printer", "Project", "Resource-for"),
            ("Printer", "Group", "Resource-for"),
            ("User", "Project", "Supervises"),
            ("User", "Group", "Supervises"),
        ],
        entities=[
            ("CEO", "User"),
            ("CFO", "User"),
            ("CTO", "User"),
            ("Tech.#1", "User"),
            ("Tech.#2", "User"),
            ("Sales.#1", "User"),
            ("Sales.#2", "User"),
            ("Execs", "Group"),
            ("Tech. Team", "Group"),
            ("Sales Team", "Group"),
            ("Client#1", "Group"),
            ("Proj.#1", "Project"),
            ("Proj.#2", "Project"),
            ("Proj.#1 Folder", "Folder"),
            ("Proj.#1 Specs", "Folder"),
            ("Proj.#1 Deliverables", "Folder"),
            ("Proj.#2 Folder", "Folder"),
            ("Proj.#2 Deliverables", "Folder"),
            ("Func.Spec.#1", "File"),
            ("Test.Spec.#1", "File"),
            ("Proj.#1 Report#1", "File"),
            ("Func.Spec.#2", "File"),
            ("Proj.#2 Report#1", "File"),
            ("Printer#1", "Printer"),
            ("Printer#2", "Printer"),
        ],
        edges=[
            # management structure
            ("CEO", "Execs", "Supervises"),
            ("CTO", "Execs", "Member-of"),
            ("CFO", "Execs", "Member-of"),
            ("CTO", "Tech. Team", "Supervises"),
            ("CFO", "Sales Team", "Supervises"),
            ("Tech.#1", "Tech. Team", "Member-of"),
            ("Tech.#2", "Tech. Team", "Member-of"),
            ("Sales.#1", "Sales Team", "Member-of"),
            ("Sales.#2", "Sales Team", "Member-of"),
            # project staffing
            ("Tech.#2", "Proj.#1", "Participant-of"),
            ("Tech.#2", "Proj.#1", "Supervises"),
            ("Sales.#2", "Proj.#1", "Participant-of"),
            ("Tech.#1", "Proj.#2", "Participant-of"),
            ("Tech.#1", "Proj.#2", "Supervises"),
            ("Sales.#1", "Proj.#2", "Participant-of"),
            # Proj.#1 documents
            ("Proj.#1 Folder", "Proj.#1", "Resource-for"),
            ("Proj.#1 Specs", "Proj.#1 Folder", "Member-of"),
            ("Func.Spec.#1", "Proj.#1 Specs", "Member-of"),
            ("Test.Spec.#1", "Proj.#1 Specs", "Member-of"),
            ("Proj.#1 Deliverables", "Proj.#1", "Deliverable-for"),
            ("Proj.#1 Report#1", "Proj.#1 Deliverables", "Member-of"),
            # Proj.#2 documents
            ("Proj.#2 Folder", "Proj.#2", "Resource-for"),
            ("Func.Spec.#2", "Proj.#2 Folder", "Member-of"),
            ("Proj.#2 Deliverables", "Proj.#2", "Deliverable-for"),
            ("Proj.#2 Report#1", "Proj.#2 Deliverables", "Member-of"),
            # shared equipment
            ("Printer#1", "Tech. Team", "Resource-for"),
            ("Printer#2", "Proj.#1", "Resource-for"),
            # the client
            ("Client#1", "Proj.#1", "Client-of"),
            ("Client#1", "Sales.#2", "Client-of"),
        ],
        pms="AllMatch",
        principal_rules=[
            ("Client-of . ~Deliverable-for . (~Member-of)+", "Deliverable Client"),
            ("Supervises+ . ~Member-of . Supervises . ~Deliverable-for", "Deliverable Reviewer"),
            ("Supervises+ . ~Member-of . Supervises . ~Deliverable-for . (~Member-of)+", "Deliverable Reviewer"),
            ("Supervises . ~Deliverable-for", "Deliverable Supervisor"),
            ("Supervises . ~Deliverable-for . (~Member-of)+", "Deliverable Supervisor"),
            ("Participant-of . ~Deliverable-for", "Deliverable User"),
            ("Participant-of . ~Deliverable-for . (~Member-of)+", "Deliverable User"),
            ("Supervises . ~Resource-for", "Project Resource Supervisor"),
            ("Supervises . ~Resource-for . (~Member-of)+", "Project Resource Supervisor"),
            ("Participant-of . ~Resource-for", "Project Resource User"),
            ("Participant-of . ~Resource-for . (~Member-of)+", "Project Resource User"),
            ("Member-of . ~Resource-for", "Team Resource User"),
        ],
        auth_rules=[
            ("Deliverable Client", "*", "read", True),
            ("Deliverable Reviewer", "*", "read", True),
            ("Deliverable Supervisor", "*", "read", True),
            ("Deliverable Supervisor", "*", "write", True),
            ("Deliverable User", "*", "read", True),
            ("Project Resource Supervisor", "*", "read", True),
            ("Project Resource Supervisor", "*", "write", True),
            ("Project Resource User", "*", "read", True),
            ("Project Resource User", "Func.Spec.#1", "write", False),
            ("Project Resource User", "*", "write", True),
            ("Team Resource User", "*", "write", True),
        ],
        crs="FirstMatch",
        requests=[
            ("Tech.#2", "Test.Spec.#1", "read"),
            ("Tech.#2", "Func.Spec.#1", "write"),
            ("Sales.#2", "Func.Spec.#1", "write"),
            ("CTO", "Proj.#1 Report#1", "read"),
            ("CEO", "Proj.#1 Report#1", "read"),
        ],
    )


FIXTURES = {
    "unix": unix_workspace,
    "rbac": rbac_workspace,
    "corporate": corporate_workspace,
}


def make_fixture(name: str) -> Workspace:
    """Build one of the bundled example workspaces by name."""
    try:
        return FIXTURES[name]()
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; choose from {sorted(FIXTURES)}") from None
