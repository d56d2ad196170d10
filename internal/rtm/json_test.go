package rtm

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestTaskSetJSONRoundTrip(t *testing.T) {
	sets := append(Benchmarks(), Quickstart(),
		NewTaskSet("edge",
			Task{Name: "constrained", WCET: 1, Period: 10, Deadline: 4},
			Task{Name: "jittery", WCET: 0.5, Period: 8, Jitter: 2},
			Task{Name: "fractional", WCET: 0.125, Period: 2.5},
		),
	)
	for _, ts := range sets {
		t.Run(ts.Name, func(t *testing.T) {
			b, err := json.Marshal(ts)
			if err != nil {
				t.Fatal(err)
			}
			var got TaskSet
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&got, ts) {
				t.Errorf("round trip changed the set:\n got %+v\nwant %+v", &got, ts)
			}
		})
	}
}

func TestWriteReadJSONRoundTrip(t *testing.T) {
	ts := Quickstart()
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ts) {
		t.Errorf("WriteJSON/ReadJSON round trip changed the set:\n got %+v\nwant %+v", got, ts)
	}
}

func TestUnmarshalValidates(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty set", `{"tasks": []}`},
		{"zero wcet", `{"tasks": [{"wcet": 0, "period": 10}]}`},
		{"wcet over period", `{"tasks": [{"wcet": 11, "period": 10}]}`},
		{"deadline over period", `{"tasks": [{"wcet": 1, "period": 10, "deadline": 20}]}`},
		{"negative jitter", `{"tasks": [{"wcet": 1, "period": 10, "jitter": -1}]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var ts TaskSet
			if err := json.Unmarshal([]byte(c.in), &ts); err == nil {
				t.Errorf("decoding %s should fail validation", c.in)
			}
		})
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("ReadJSON should reject non-JSON input")
	}
}

func TestJSONOmitsDefaults(t *testing.T) {
	b, err := json.Marshal(NewTaskSet("x", Task{WCET: 1, Period: 10}))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"deadline", "jitter"} {
		if bytes.Contains(b, []byte(field)) {
			t.Errorf("zero %s should be omitted, got %s", field, b)
		}
	}
}

func TestUnmarshalRejectsUnknownFields(t *testing.T) {
	for _, in := range []string{
		`{"tasks": [{"wcet": 1, "period": 4, "bogus": 3}]}`,
		`{"tasks": [{"wcet": 1, "period": 4}], "extra": 1}`,
	} {
		var ts TaskSet
		if err := json.Unmarshal([]byte(in), &ts); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("decoding %s: err = %v, want an unknown-field error", in, err)
		}
	}
}

// TestJSONWireForm pins the encoded bytes of a set: the tags must
// write exactly the wire form clients and files have always used.
func TestJSONWireForm(t *testing.T) {
	ts := NewTaskSet("x",
		Task{Name: "a", WCET: 1, Period: 10, Deadline: 4, Jitter: 0.5},
		Task{Name: "b", WCET: 0.25, Period: 8},
	)
	b, err := json.Marshal(ts)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"x","tasks":[{"name":"a","wcet":1,"period":10,"deadline":4,"jitter":0.5},{"name":"b","wcet":0.25,"period":8}]}`
	if string(b) != want {
		t.Errorf("wire form\n got %s\nwant %s", b, want)
	}
}

// TestUnmarshalResetsReusedSet: decoding into a set that already holds
// tasks must not carry old field values into the new ones.
func TestUnmarshalResetsReusedSet(t *testing.T) {
	ts := NewTaskSet("old", Task{Name: "a", WCET: 1, Period: 10, Deadline: 4, Jitter: 1})
	if err := json.Unmarshal([]byte(`{"tasks": [{"wcet": 2, "period": 12}]}`), ts); err != nil {
		t.Fatal(err)
	}
	want := &TaskSet{Tasks: []Task{{WCET: 2, Period: 12}}}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("decoded %+v, want %+v", ts, want)
	}
}
