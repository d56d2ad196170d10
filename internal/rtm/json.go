package rtm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Task and TaskSet carry their wire form as json tags (task.go), so
// encoding/json writes a set in one pass. Decoding adds the one thing
// tags cannot say: a decoded set is strict and valid.

// UnmarshalJSON implements json.Unmarshaler. It decodes in one strict
// pass straight into ts — an unknown field anywhere in the set is an
// error, as it is for the requests that embed one — and validates the
// result.
func (ts *TaskSet) UnmarshalJSON(data []byte) error {
	type plain TaskSet // same fields, no methods: Decode does not recurse
	*ts = TaskSet{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode((*plain)(ts)); err != nil {
		return fmt.Errorf("rtm: decoding task set: %w", err)
	}
	return ts.Validate()
}

// WriteJSON writes the task set as indented JSON.
func (ts *TaskSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ts)
}

// ReadJSON decodes and validates a task set from r.
func ReadJSON(r io.Reader) (*TaskSet, error) {
	var ts TaskSet
	if err := json.NewDecoder(r).Decode(&ts); err != nil {
		return nil, err
	}
	return &ts, nil
}
