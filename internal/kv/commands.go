package kv

import "github.com/respct/respct/internal/wire"

// Command declares one server command. The registry is the one place a verb
// exists: the text parser looks verbs up in it and takes their framing from
// it, the executor finds each op's row by Opcode, the server labels its
// respct_kv_op_ns series with Verb, and docs/COMMANDS.md's command table is
// diffed against it by TestCommandsMatchReference, so neither the code nor
// the doc can drift from what the server ships.
type Command struct {
	// Verb is the text-protocol verb and the telemetry label.
	Verb string
	// Opcode is the binary-protocol opcode and the executor's op tag; 0
	// (opMulti) for MULTI, whose binary form is a FlagAtomic frame rather
	// than an opcode.
	Opcode byte
	// Since is the wire protocol version that introduced the binary form
	// (0 for text-only commands).
	Since int
	// Durability names the InCLL/undo scheme that makes the mutation
	// crash-atomic (or states that the command does not mutate).
	Durability string
	// Args is the text form's argument count after the verb.
	Args int
	// Body marks a text form whose last argument is a byte count followed
	// by that many payload bytes plus CRLF on the next line.
	Body bool
	// Multi admits the verb as a text `multi` sub-line. (A FlagAtomic frame
	// admits every single-key opcode: all but scan.)
	Multi bool
	// Structures marks a command that needs the structures surface; on a
	// store without it the command is refused.
	Structures bool
}

// opMulti tags an atomic batch (text MULTI, binary FlagAtomic frame). It is
// not a wire opcode: 0 is never valid on the wire.
const opMulti = 0

var commands = [...]Command{
	{Verb: "get", Opcode: wire.OpGet, Since: 1, Args: 1, Multi: true,
		Durability: "read-only; expired keys filtered before the sweep"},
	{Verb: "set", Opcode: wire.OpSet, Since: 1, Args: 2, Body: true, Multi: true,
		Durability: "write-once record + one logged pointer swing (InCLL undo); clears any TTL"},
	{Verb: "delete", Opcode: wire.OpDelete, Since: 1, Args: 1, Multi: true,
		Durability: "logged pointer unlink (InCLL undo), record freed after unlink"},
	{Verb: "scan", Opcode: wire.OpScan, Since: 2, Args: 3, Structures: true,
		Durability: "read-only; walks the persistent ordered index under its lock"},
	{Verb: "qpush", Opcode: wire.OpQPush, Since: 2, Args: 2, Body: true, Structures: true,
		Durability: "write-once value blob + logged queue pointer updates (InCLL undo)"},
	{Verb: "qpop", Opcode: wire.OpQPop, Since: 2, Args: 1, Structures: true,
		Durability: "logged head/tail updates (InCLL undo), blob freed after unlink"},
	{Verb: "lappend", Opcode: wire.OpLAppend, Since: 2, Args: 2, Body: true, Structures: true,
		Durability: "write-once record bytes + logged count/tail updates (InCLL undo)"},
	{Verb: "lrange", Opcode: wire.OpLRange, Since: 2, Args: 3, Structures: true,
		Durability: "read-only; indexed walk of the log's segment chain"},
	{Verb: "expire", Opcode: wire.OpExpire, Since: 2, Args: 2, Multi: true, Structures: true,
		Durability: "one logged update of the record's expiry cell (InCLL undo)"},
	{Verb: "ttl", Opcode: wire.OpTTL, Since: 2, Args: 1, Structures: true,
		Durability: "read-only; deadline read against the store clock"},
	{Verb: "multi", Opcode: opMulti, Since: 0, Args: 1, Structures: true,
		Durability: "sub-ops under one checkpoint-prevent window: the batch commits or rolls back whole"},
}

// byCode indexes the registry by Opcode.
var byCode = func() (t [wire.OpTTL + 1]*Command) {
	for i := range commands {
		t[commands[i].Opcode] = &commands[i]
	}
	return t
}()

// Commands returns the full command registry in documentation order.
func Commands() []Command { return commands[:] }

// lookupVerb returns verb's registry row, nil for an unknown verb.
func lookupVerb(verb []byte) *Command {
	for i := range commands {
		if string(verb) == commands[i].Verb {
			return &commands[i]
		}
	}
	return nil
}
